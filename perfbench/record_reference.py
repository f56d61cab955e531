"""Record the model-curve reference CSVs that checks.py compares against.

    python3 perfbench/record_reference.py

Runs bloch, aperture and entangle at the full and tiny sizes of the
model_curves workload and keeps their seed-independent CSVs in
`reference/model_curves-<size>/`.  Run it only at a commit whose outputs are
known good: every later benchmark run is checked against what it writes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_DIR
from run import CLI_ARGS, SRC, WORKLOADS, _write_ini

KEEP = ("bloch_error_curve.csv", "tradeoff_*.csv", "fringe_*.csv", "fidelity_summary.csv")


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workload = WORKLOADS["model_curves"]
    for size in ("full", "tiny"):
        target = REFERENCE_DIR / f"model_curves-{size}"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory(dir=REFERENCE_DIR) as tmp:
            config = Path(tmp) / "config.ini"
            _write_ini(config, workload[size])
            for op in workload["ops"]:
                cmd = [sys.executable, "-m", "ionphoton.cli", *CLI_ARGS[op], "--config", str(config), "--out", tmp]
                subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
            for pattern in KEEP:
                for path in Path(tmp).glob(pattern):
                    shutil.copy(path, target / path.name)
        print(f"recorded {len(list(target.iterdir()))} files in {target}")


if __name__ == "__main__":
    main()

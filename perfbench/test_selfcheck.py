"""Self-check of the benchmark at tiny sizes; it asserts no timing.

    python3 -m pytest perfbench/test_selfcheck.py

Each workload runs one untraced and one traced pass at a few thousand g2
trials and a 2-point Bloch grid, through the same code as a full run.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records():
    return {w: run.Run(w, seed=7, seconds=0, trace=True, size="tiny").execute() for w in run.WORKLOADS}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_passes_every_output_check(records, workload):
    record = records[workload]
    assert record["correct"] and record["failed"] == 0, record["passes"]
    assert record["attempted"] == 2 * len(run.WORKLOADS[workload]["ops"])
    assert {p["traced"] for p in record["passes"]} == {False, True}
    for metric in SPEC["end_to_end"]:
        assert record["metrics"][metric["name"]] > 0, metric["name"]
    assert record["metrics"]["geometry.probe_attempted"] == 7
    assert record["environment"]["nproc"] >= 1
    assert all(int(n) <= record["environment"]["nproc"] for n in record["environment"]["blas_threads"].values())
    assert (run.OUT / f"{workload}-tiny-seed7-trace1" / "result.json").is_file()


def test_every_per_layer_metric_is_measured_on_some_workload(records):
    measured = {name for record in records.values() for name in record["metrics"]}
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in measured]
    assert not missing


def test_g2_check_rejects_a_changed_row(tmp_path):
    g2 = run.WORKLOADS["g2_sparse"]["tiny"]["g2"]
    reference = checks.G2Reference(g2, seed=7)
    run._use_checkout_sources()
    for name, rows in reference.rows.items():
        (tmp_path / name).write_text("# ionphoton\n# config=any seed=7\n" + "\n".join(rows) + "\n")
    assert reference.check_outputs(tmp_path, g2) == []
    histogram = tmp_path / "g2_histogram.csv"
    lines = histogram.read_text().splitlines()
    tau, count = lines[3].split(",")
    lines[3] = f"{tau},{int(count) + 1}"
    histogram.write_text("\n".join(lines) + "\n")
    assert reference.check_outputs(tmp_path, g2) == ["g2_histogram.csv: rows differ from the reference"]


def test_bloch_check_rejects_a_value_beyond_its_bound(tmp_path):
    reference = checks.REFERENCE_DIR / "model_curves-tiny"
    shutil.copy(reference / "bloch_error_curve.csv", tmp_path)
    assert checks.check_bloch(tmp_path, reference) == []
    path = tmp_path / "bloch_error_curve.csv"
    lines = path.read_text().splitlines()
    t_p, eps = lines[-1].split(",")
    lines[-1] = f"{t_p},{float(eps) * (1 + 1e-7):.11e}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_bloch(tmp_path, reference)

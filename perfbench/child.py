"""One benchmarked op: an ionphoton CLI invocation, in a process of its own.

    python3 child.py [--trace SPANS_JSON] [--setup-only | --calibrate] -- <ionphoton CLI arguments>

Imports `ionphoton.cli` and loads the op's config, the set-up a user waits
for on every invocation, then writes the monotonic clock to stderr as
"perfbench-ready <seconds>" and runs `cli.main` on the arguments, as the
`ionphoton` entry point does.  The config is loaded once more inside
`cli.main`.  With --setup-only it exits once ready.  With --calibrate it
imports only the program's third-party dependencies, numpy and
scipy.integrate, and exits once ready: set-up work that no change to the
program can alter, which measures how fast the machine runs.  With --trace it wraps
the public functions of every layer in spans first and writes them, with
the import time, to SPANS_JSON when the op ends.
"""

import sys
import time

READY = "perfbench-ready"
PEAK = "perfbench-peak-kb"


def report_peak_rss() -> None:
    """Write this process's own peak RSS to stderr as "perfbench-peak-kb <kB>".

    VmHWM counts only the memory of the program image exec'd here.  The
    rusage a parent gets from wait4 also holds the RSS the child inherited
    from the parent at fork, which can exceed the op's own peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                print(f"{PEAK} {line.split()[1]}", file=sys.stderr, flush=True)


def main(argv: list[str]) -> int:
    spans_path = None
    setup_only = calibrate = False
    while argv and argv[0] != "--":
        flag = argv.pop(0)
        if flag == "--trace":
            spans_path = argv.pop(0)
        elif flag == "--setup-only":
            setup_only = True
        elif flag == "--calibrate":
            calibrate = True
        else:
            raise SystemExit(f"child.py: unknown flag {flag}")
    cli_args = argv[1:]
    if calibrate:
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401

        print(f"{READY} {time.monotonic():.9f}", file=sys.stderr, flush=True)
        return 0

    start = time.perf_counter()
    import ionphoton.cli as cli

    import_s = time.perf_counter() - start
    from ionphoton.config import load_config

    config = cli_args[cli_args.index("--config") + 1] if "--config" in cli_args else None
    load_config(config)
    print(f"{READY} {time.monotonic():.9f}", file=sys.stderr, flush=True)
    if setup_only:
        return 0
    if spans_path is None:
        try:
            return cli.main(cli_args)
        finally:
            report_peak_rss()

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        report_peak_rss()
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

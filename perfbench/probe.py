"""One set-up measurement in a fresh process: import plus the first operation.

Run by ``run.py``, never on its own. Prints one JSON line with the set-up
time (import of the package, then the cold operation; loading the prepared
input in between is not counted), the process memory high-water mark and
the operation's output digest for the parent to compare.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.pin_and_locate()
import workloads  # noqa: E402  (imports numpy, scipy and radarvitals)

T1 = time.perf_counter()


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    Read from VmHWM rather than ``ru_maxrss``: the latter keeps the parent's
    resident set that a forked child starts with, even across exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.work_dir), args.small)
    wl.load_probe_input()
    t2 = time.perf_counter()
    out = [step() for step in wl.steps(0)]
    t3 = time.perf_counter()
    print(json.dumps({
        "setup_s": (T1 - T0) + (t3 - t2),
        "import_s": T1 - T0,
        "peak_rss_mb": peak_rss_mb(),
        "digest": wl.digest(out),
    }))


if __name__ == "__main__":
    main()

"""CLI-level benchmark of spanse; see README.md in this directory.

    python3 bench/run.py --workload desk-lifecycle --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics untraced (--trace 0) or the per-layer metrics of a
traced run (--trace 1). The line before it is a report with per-command
figures, failures and the environment.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("desk-lifecycle", "p101-keygen", "analysis-128")
FRESH_IMPORTS = 2  # timed in child interpreters, for a median of three with ours


def pin_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use, before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def fresh_import_seconds() -> list[float]:
    """Import time of the benchmark and library in new interpreters."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]; "
            "import harness; print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(FRESH_IMPORTS)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spanse" / "__init__.py").is_file():
        print(f"error: no spanse sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import harness
    import spanse

    if Path(spanse.__file__).resolve().parent != SRC / "spanse":
        print(f"error: imported spanse from {spanse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    imports = [time.perf_counter() - _START] + fresh_import_seconds()
    result, report = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), imports_s=imports)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

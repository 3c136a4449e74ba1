"""Workload process: set-up, timed passes with checks, and the traced pass.

``run.py`` starts this process with one BLAS thread and the package source on
``PYTHONPATH``; it prints one JSON object as its last line.  With
``--setup-only`` it stops after set-up, which is what ``setup_s`` times.
Without ``--trace`` it makes as many whole passes as fit in ``--seconds``
at the workload's measured pass time (``workloads.PASS_S``), and at least
one; the count does not depend on how fast this run happens to
be, so the first (cold) pass always has the same weight in the median.
With ``--trace 1`` it makes one traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpu": cpu}


def _one_pass(run, state, out_dir: Path, tally_cls) -> dict:
    tally = tally_cls()
    t0 = time.perf_counter()
    accuracy = run(state, out_dir, tally)
    wall = time.perf_counter() - t0
    for name, ok, detail in tally.checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    return {"wall_s": wall, "accuracy": accuracy, "attempted": tally.attempted,
            "failed": tally.failed,
            "checks": [[name, ok, detail] for name, ok, detail in tally.checks]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    import workloads
    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, args.small)
    if args.setup_only:
        return 0

    out_dir = args.out / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"environment": _environment(), "passes": []}
    if args.trace:
        import tracer
        tr = tracer.Tracer().install()
        try:
            result["passes"].append(_one_pass(run, state, out_dir, workloads.Tally))
        finally:
            tr.uninstall()
        tr.write(out_dir / f"spans_seed{args.seed}.jsonl")
        result["layers"] = tr.layer_metrics()
    else:
        passes = max(1, int(args.seconds // workloads.PASS_S[args.workload]))
        for _ in range(passes):
            result["passes"].append(_one_pass(run, state, out_dir, workloads.Tally))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

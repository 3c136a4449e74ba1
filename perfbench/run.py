"""Benchmark of the meancurv package: one workload, one seed, one run.

    python3 perfbench/run.py --workload cone_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every workload runs in one process, one pass after another (a closed loop
with a single caller), pinned to one BLAS thread.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics
from a traced pass.  Lines before the last are a human-readable report;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--small`` selects the reduced sizes of the
harness self-test (selftest.py).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5            # setup_s is the median of this many fresh processes
DEADLINE_S = 170.0          # a run must end within 180 s
# per-layer units that must repeat exactly across runs of one commit
COUNT_UNITS = ("count", "bytes", "code", "ratio")


class BenchError(RuntimeError):
    pass


def _worker(args, extra, env, deadline):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(args.out), *extra]
    if args.small:
        cmd.append("--small")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before the workload process started")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return proc.stdout


def _result(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def _tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    k = len(samples) - 10
    if k < 1:
        return None
    return 100.0 * k / len(samples), sorted(samples)[k - 1]


def code_digest(root: Path) -> str:
    """SHA-256 over the package and benchmark sources: which code a count measures."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "meancurv").rglob("*.py")) \
        + sorted((root / "perfbench").glob("*.py"))
    for path in files:
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def count_record(out: Path, workload: str, root: Path = ROOT) -> Path:
    return out / "counts" / f"{workload}-{code_digest(root)}.json"


def _check_counts(args, layers):
    """Compare this run's counts with the first traced run of the same code.

    Returns the names that differ, or None when this is the first traced run
    of this code in the checkout, which records its counts.
    """
    counts = {name: value for name, (value, unit) in layers.items() if unit in COUNT_UNITS}
    record = count_record(args.out, args.workload)
    if not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        return None
    first = json.loads(record.read_text())
    return sorted(name for name in first.keys() | counts.keys()
                  if first.get(name) != counts.get(name))


def run(args) -> dict:
    if not (ROOT / "src" / "meancurv" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'meancurv'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                                 if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=pythonpath)

    if args.trace:
        # untraced and traced pass each in a fresh process, so both are cold
        untraced = _result(_worker(args, ["--seconds", "0"], env, deadline))
        res = _result(_worker(args, ["--trace", "1"], env, deadline))
        passes = untraced["passes"] + res["passes"]
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            _worker(args, ["--setup-only"], env, deadline)
            setups.append(time.perf_counter() - t0)
        res = _result(_worker(args, ["--seconds", str(args.seconds)], env, deadline))
        passes = res["passes"]
    walls = [p["wall_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    report = [f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es)"
              f"{' (untraced, traced; one process each)' if args.trace else ''}",
              "environment: " + json.dumps(res["environment"], sort_keys=True)]
    for k, p in enumerate(passes):
        for name, ok, detail in p["checks"]:
            report.append(f"pass {k} check {'PASS' if ok else 'FAIL'} {name}: {detail}")

    if args.trace:
        untraced, traced = walls
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced,
                                         "unit": "%"}
        report.append(f"tracing overhead: traced {traced:.3f} s vs untraced "
                      f"{untraced:.3f} s ({metrics['trace.overhead_pct']['value']:+.1f} %)")
        mismatched = _check_counts(args, res["layers"])
        if mismatched is None:
            report.append("count determinism: first traced run of this code, "
                          "counts recorded for later runs")
        else:
            attempted += 1
            if mismatched:
                failed += 1
                report.append("count determinism FAIL: " + ", ".join(mismatched))
            else:
                report.append("count determinism PASS")
    else:
        tail = _tail_percentile(walls)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "accuracy_err": {"value": max(p["accuracy"] for p in passes), "unit": "1"},
        }
        report.append(
            f"wall_s median {metrics['wall_s']['value']:.3f} s over {len(walls)} pass(es); "
            + (f"p{tail[0]:.0f} {tail[1]:.3f} s" if tail else
               "no percentile has ten passes beyond it"))
        report.append("wall_s samples " + ", ".join(f"{w:.3f}" for w in walls))
        report.append("setup_s samples " + ", ".join(f"{s:.3f}" for s in setups))

    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        raise BenchError("metric names or units differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(expected.items()))}")
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise BenchError("a metric is not finite")
    report.append(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} "
                  "lifts, solves and checks)")
    return {"report": report, "result": {"correct": failed == 0, "attempted": attempted,
                                         "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="meancurv benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the harness self-test")
    args = ap.parse_args(argv)
    args.out = HERE / "out" / ("small" if args.small else "full")
    try:
        out = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke self-test of the benchmark harness at reduced sizes.

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit in both modes, that a deliberately wrong reference value and a wrong
recorded count both trip the correctness gate, that changed source code is
not compared with counts recorded for other code, and that the benchmark
refuses to run where the package source is missing.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL_OUT = HERE / "out" / "small"
FAILURES = []
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import run as bench_run  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT):
    """Run the benchmark at reduced sizes; returns (exit code, last-line JSON, lines)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, lines


def metric_units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_every_metric_printed(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = bench(workload, trace)
            expect(code == 0 and result is not None, f"{workload} trace {trace} exits 0")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace {trace} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace {trace} checks pass")
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(metric_units(result) == want,
                   f"{workload} trace {trace} prints every {key} metric with its unit")


def test_wrong_reference_trips_gate() -> None:
    import workloads
    setup, run = workloads.WORKLOADS["levelset_256"]
    state = setup(0, True)
    for name in ("eta_star", "coarea_paraboloid"):
        saved = workloads.REFERENCES[True][name]
        workloads.REFERENCES[True][name] = saved * 1.01
        try:
            tally = workloads.Tally()
            run(state, SMALL_OUT / "wrong_reference", tally)
        finally:
            workloads.REFERENCES[True][name] = saved
        failed = [c[0] for c in tally.checks if not c[1]]
        expect(failed == [name] and tally.failed == 1,
               f"a wrong {name} reference fails exactly that check")


def test_count_mismatch_reported() -> None:
    record = bench_run.count_record(SMALL_OUT, "levelset_256")
    counts = json.loads(record.read_text())
    counts["field.segments"] += 1
    record.write_text(json.dumps(counts))
    _, result, lines = bench("levelset_256", 1)
    expect(result is not None and not result["correct"]
           and any("field.segments" in line and "FAIL" in line for line in lines),
           "a count that differs from the first traced run is reported by name")


def test_changed_code_not_compared() -> None:
    """A copy with one source file changed ignores the record of the original."""
    copy = SMALL_OUT / "changed"
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, copy / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    copy_out = copy / "perfbench" / "out" / "small"
    stale = bench_run.count_record(copy_out, "levelset_256")    # the original's digest
    stale.parent.mkdir(parents=True)
    stale.write_text(json.dumps({"field.segments": -1}))
    with open(copy / "src" / "meancurv" / "levelset.py", "a", encoding="utf-8") as fh:
        fh.write("\n# changed\n")
    fresh = bench_run.count_record(copy_out, "levelset_256", root=copy)
    _, result, _ = bench("levelset_256", 1, cwd=copy)
    expect(fresh != stale and result is not None and result["correct"]
           and fresh.is_file(),
           "changed code records its own counts instead of inheriting an old record")


def test_refuses_without_source() -> None:
    bare = SMALL_OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench("cone_sweep", 0, cwd=bare)
    expect(code != 0 and result is None, "refuses to run without the package source")


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    shutil.rmtree(SMALL_OUT, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_every_metric_printed(spec)
    test_wrong_reference_trips_gate()
    test_count_mismatch_reported()
    test_changed_code_not_compared()
    test_refuses_without_source()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

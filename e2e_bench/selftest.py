"""Smoke test of the benchmark itself.

Runs each workload at a tiny size (the ungated ``solver`` too),
untraced and traced, and checks that

* the last stdout line has exactly the result keys, a correct verdict,
  and metric names and units equal to ``BENCHMARK.json``;
* in the traced run the layer self times plus ``trace.unattributed_s``
  add up to ``trace.wall_s``;
* a corrupted reference fingerprint makes the correctness gate fail;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the command exits non-zero without printing a result.

Usage, from the repository root:
    python3 e2e_bench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys

from spans import LAYERS

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_result(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, (
        f"{workload} trace={trace}: names/units differ from BENCHMARK.json:"
        f" missing {sorted(set(expected) - set(printed))},"
        f" extra {sorted(set(printed) - set(expected))}"
    )
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        parts = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        parts += metrics["trace.unattributed_s"]
        wall = metrics["trace.wall_s"]
        assert abs(parts - wall) <= 1e-6 * wall, (parts, wall)
        if workload == "dispatch":
            # Fig. 6 batches wait for scheduler slots in run_batch.
            assert metrics["concurrency.scheduler_wait_s"] > 0, metrics
    else:
        assert all(value > 0 for value in metrics.values()), metrics
    print(f"ok   {workload} trace={trace}: {result['attempted']} jobs")


def check_gate() -> None:
    """The gate must flag a report that differs from its reference."""
    import run
    from workloads import make_jobs, reference_fingerprint

    jobs = make_jobs("dispatch", 7, 4)
    references = {job.job_id: reference_fingerprint(job) for job in jobs}
    workdir = ROOT / ".bench_work" / "selftest-gate"
    workdir.mkdir(parents=True, exist_ok=True)
    args = argparse.Namespace(workload="dispatch", seed=7, count=len(jobs))
    try:
        done = run.measure(args, False, workdir, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert run.failures(jobs, references, done) == {}
    references[jobs[0].job_id] = "0" * 32
    flagged = run.failures(jobs, references, done)
    assert list(flagged) == [jobs[0].job_id], flagged
    print("ok   corrupted reference fingerprint fails the gate")


def check_bare_directory() -> None:
    """Without the repository's sources the command must refuse."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        done = _run("dispatch", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print("ok   bare directory exits non-zero without a result")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run

    for workload in run.JOBS_PER_SECOND:
        for trace in (0, 1):
            check_result(workload, trace)
    check_gate()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

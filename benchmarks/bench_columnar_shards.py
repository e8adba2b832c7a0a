"""Sharded columnar engine: shard-ordered screening at provenance scale (PR 8).

PR 8 split :class:`repro.core.engine.ColumnarStore` into row-range
shards: per-shard column bitsets and fail masks, shard-local match
tables, and a :class:`repro.core.shards.ShardPlan` controlling shard
sizing.  The win is the **existence short-circuit**: screening queries
(``refutes_many`` / ``supports_many``) walk shards in row order and
stop at the first shard containing a witness, touching small
shard-local integers instead of one history-wide bitset per literal.
Every query runs serially on the calling thread.

This benchmark drives the screening-heavy regime those changes target:
a >=100k-row synthetic history (4+ shards at the benchmarked plan),
repeated rounds of fresh 5-literal conjunction batches through the
real engine entry points, with rows appended *between* rounds so the
run crosses a shard boundary mid-benchmark (seal + new tail shard
while queries are in flight).  Each arm sweeps identical
pre-generated rows, alternating with the other arm:

* ``sharded``   -- the PR 8 layout (4+ shards, shard-ordered
                   short-circuit, shard-local match tables);
* ``unsharded`` -- a single monolithic shard (the PR 7 layout,
                   reproduced exactly by ``ShardPlan(shard_rows=BIG)``).

Every sweep of both arms must produce the **same** sha256 fingerprint
over every verdict stream and the final fail mask, with **zero**
reference-path fallbacks; the run aborts otherwise.  Each arm's time
is the minimum over its ``SWEEPS`` sweeps, so one descheduled sweep on
a busy host cannot flip the gate.  A small end-to-end DDT FindAll
differential additionally pins tree building (the sharded Gini-split
path) to the unsharded report.  Exit status is non-zero when the
sharded sweep is not faster (quick mode) or falls below the 2x
acceptance bar (full mode).

Usage:
    PYTHONPATH=src python benchmarks/bench_columnar_shards.py [--quick]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import platform
import random
import sys
import time

from repro.core import (
    Comparator,
    Conjunction,
    DebugSession,
    ExecutionHistory,
    Instance,
    Outcome,
    Predicate,
    StrategyContext,
)
from repro.core.bugdoc import Algorithm, BugDoc
from repro.core.shards import ShardPlan
from repro.synth import SyntheticConfig, generate_pipeline

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

N_PARAMS = 16
DOMAIN_SIZE = 8
LITERALS_PER_CONJUNCTION = 5
REQUIRED_SPEEDUP_FULL = 2.0

# Full mode: 262,072 seeded rows + 80 appended mid-run crosses the
# 4 * 65536 = 262,144 boundary, sealing a shard while screening runs.
FULL = dict(
    shard_rows=65536, seed_rows=262_072, rounds=40, batch=64, appends=2
)
# Quick mode straddles 4 * 8192 = 32,768 the same way at CI scale.
QUICK = dict(shard_rows=8192, seed_rows=32_720, rounds=8, batch=32, appends=8)
# Each arm's time is its fastest sweep: single sweeps of 15-40 ms flip
# with host noise, the minimum of several does not.
SWEEPS = 5

UNSHARDED_PLAN = ShardPlan(shard_rows=1 << 62)


def _make_space():
    from repro.core import Parameter, ParameterSpace

    return ParameterSpace(
        [
            Parameter(f"p{i:02d}", tuple(range(DOMAIN_SIZE)))
            for i in range(N_PARAMS)
        ]
    )


def _outcome_for(codes) -> Outcome:
    """Deterministic oracle over codes: one planted cause + background."""
    if codes[0] == 0 and codes[1] <= 2:
        return Outcome.FAIL
    if sum(codes) % 11 == 0:
        return Outcome.FAIL
    return Outcome.SUCCEED


def _generate_rows(space, n_rows: int, seed: int):
    """Distinct (codes, instance, outcome) rows, shared by both sweeps."""
    rng = random.Random(seed)
    names = space.names
    domains = [space.domain(name) for name in names]
    seen = set()
    rows = []
    while len(rows) < n_rows:
        codes = tuple(rng.randrange(DOMAIN_SIZE) for _ in range(N_PARAMS))
        if codes in seen:
            continue
        seen.add(codes)
        instance = Instance(
            {name: domains[i][code] for i, (name, code) in
             enumerate(zip(names, codes))}
        )
        rows.append((codes, instance, _outcome_for(codes)))
    return rows


def _conjunction_batches(space, rounds: int, batch: int, seed: int):
    """Fresh batches of 5-literal conjunctions, mostly broad predicates.

    Broad literals (NEQ / LE / GT on mid-domain values) keep most
    conjunctions witnessed somewhere in the history, which is the
    regime the shard-ordered short-circuit targets; a narrow EQ-heavy
    tail keeps full-scan refutations in the mix.
    """
    rng = random.Random(seed)
    names = space.names
    batches = []
    for _ in range(rounds):
        conjunctions = []
        for b in range(batch):
            params = rng.sample(names, LITERALS_PER_CONJUNCTION)
            narrow = b % 16 == 0
            predicates = []
            for name in params:
                value = rng.randrange(DOMAIN_SIZE)
                if narrow:
                    comparator = Comparator.EQ
                else:
                    comparator = rng.choice(
                        (Comparator.NEQ, Comparator.NEQ, Comparator.LE,
                         Comparator.GT)
                    )
                predicates.append(Predicate(name, comparator, value))
            conjunctions.append(Conjunction(predicates))
        batches.append(conjunctions)
    return batches


def _never_called(instance):
    raise AssertionError("screening sweep must not execute the pipeline")


def run_sweep(space, rows, batches, cfg, plan: ShardPlan):
    """One screening sweep; returns (solver_seconds, fingerprint, stats)."""
    seed_rows = rows[: cfg["seed_rows"]]
    append_rows = rows[cfg["seed_rows"]:]

    history = ExecutionHistory()
    for codes, instance, outcome in seed_rows:
        history.record(instance, outcome)
    history.columnar_store_from_codes(
        space, [codes for codes, _, __ in seed_rows], plan=plan
    )
    session = DebugSession(_never_called, space, history=history)
    context = StrategyContext(session, shard_plan=plan)

    digest = hashlib.sha256()
    started = time.perf_counter()
    cursor = 0
    for conjunctions in batches:
        refuted = context.refutes_many(conjunctions)
        supported = context.supports_many(conjunctions)
        digest.update(bytes(refuted))
        digest.update(bytes(supported))
        for codes, instance, outcome in append_rows[
            cursor: cursor + cfg["appends"]
        ]:
            history.record(instance, outcome)
        cursor += cfg["appends"]
    store = history.columnar_store(space, plan=plan)
    solver = time.perf_counter() - started

    digest.update(str(store.n_rows).encode())
    digest.update(format(store.fail_mask, "x").encode())
    if context.fallback_count:
        raise SystemExit(
            f"SILENT FALLBACKS: {context.fallback_count} engine queries "
            "fell back to the reference path on a compilable workload"
        )
    return solver, digest.hexdigest(), context.engine_stats()


def ddt_differential(cfg) -> tuple[str, str]:
    """End-to-end DDT FindAll fingerprints, sharded vs unsharded.

    Covers the paths the screening sweep does not: sharded Gini
    splits, incremental tree repair, subsumption grids, and budgeted
    execution -- all must be byte-identical across plans.
    """
    fingerprints = []
    for plan in (ShardPlan(shard_rows=64), UNSHARDED_PLAN):
        pipeline = generate_pipeline(
            "shard-differential",
            config=SyntheticConfig(
                min_parameters=7,
                max_parameters=7,
                min_values=4,
                max_values=5,
                cause_arities=(2, 2, 3),
                verify_minimality_up_to=0,
            ),
            seed=808,
        )
        bugdoc = BugDoc(
            pipeline.oracle, pipeline.space, budget=150, seed=13,
            shard_plan=plan,
        )
        report = bugdoc.find_all(Algorithm.DECISION_TREES)
        fingerprints.append(
            repr(
                (
                    tuple(str(c) for c in report.causes),
                    str(report.explanation),
                    report.instances_executed,
                    report.budget_exhausted,
                )
            )
        )
    return fingerprints[0], fingerprints[1]


def render(cfg, sharded_s, unsharded_s, stats) -> str:
    total_rows = cfg["seed_rows"] + cfg["rounds"] * cfg["appends"]
    queries = 2 * cfg["rounds"] * cfg["batch"]
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    lines = [
        "Sharded columnar engine: shard-ordered screening vs one monolithic",
        "shard over identical pre-generated rows (fingerprints verified per",
        "sweep; rows appended between rounds cross a shard boundary mid-run;",
        f"each arm's time is the minimum of {SWEEPS} sweeps)",
        f"host: {cores} usable cores, "
        f"CPython {platform.python_version()}, {platform.platform()}",
        "",
        f"{'rows':>8} {'queries':>8} {'shards':>7} "
        f"{'unsharded':>10} {'sharded':>9} {'speedup':>8}",
        f"{total_rows:>8} {queries:>8} {stats.get('shards', '?'):>7} "
        f"{unsharded_s:>9.4f}s {sharded_s:>8.4f}s "
        f"{unsharded_s / sharded_s:>7.2f}x",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small history, no results file",
    )
    args = parser.parse_args(argv)
    cfg = QUICK if args.quick else FULL

    space = _make_space()
    total_rows = cfg["seed_rows"] + cfg["rounds"] * cfg["appends"]
    rows = _generate_rows(space, total_rows, seed=8)
    batches = _conjunction_batches(
        space, cfg["rounds"], cfg["batch"], seed=80
    )

    arms = {
        "sharded": ShardPlan(shard_rows=cfg["shard_rows"]),
        "unsharded": UNSHARDED_PLAN,
    }
    times: dict[str, list[float]] = {arm: [] for arm in arms}
    expected = None
    for sweep in range(SWEEPS):
        for arm, plan in arms.items():
            seconds, fingerprint, arm_stats = run_sweep(
                space, rows, batches, cfg, plan
            )
            if expected is None:
                expected = fingerprint
            elif fingerprint != expected:
                raise SystemExit(
                    f"SHARD DIVERGENCE ({arm}, sweep {sweep}):\n"
                    f"  expected: {expected}\n  got     : {fingerprint}"
                )
            times[arm].append(seconds)
            if arm == "sharded":
                stats = arm_stats
    sharded_s = min(times["sharded"])
    unsharded_s = min(times["unsharded"])
    if stats["shards"] < 4:
        raise SystemExit(
            f"sharded sweep ran with {stats['shards']} shards; expected >= 4"
        )

    ddt_sharded, ddt_unsharded = ddt_differential(cfg)
    if ddt_sharded != ddt_unsharded:
        raise SystemExit(
            f"DDT DIVERGENCE:\n  sharded  : {ddt_sharded}\n"
            f"  unsharded: {ddt_unsharded}"
        )

    text = render(cfg, sharded_s, unsharded_s, stats)
    print(text)
    print("\nfingerprints identical; DDT differential identical; 0 fallbacks")

    if not args.quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "columnar_shards.txt").write_text(
            text + "\n", encoding="utf-8"
        )

    speedup = unsharded_s / sharded_s
    required = 1.0 if args.quick else REQUIRED_SPEEDUP_FULL
    if speedup < required:
        print(
            f"\nFAIL: sharded sweep speedup {speedup:.2f}x is below the "
            f"required {required:.1f}x",
            file=sys.stderr,
        )
        return 1
    print(f"\nOverall: {speedup:.2f}x less solver time with sharding")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

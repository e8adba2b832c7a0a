"""Fixed job lists for the three benchmark workloads, drawn from a seed.

Every run finishes every job of its list, so two runs with the same
seed do exactly the same debugging work and their counts
(``instances_per_job``, ``f_measure``) repeat exactly.  The same
module builds the inline serial reference each job's report is
compared against, and scores reports against the planted causes.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable

from repro.core import ExecutionHistory, Instance, Outcome
from repro.core.budget import InstanceBudget
from repro.core.bugdoc import Algorithm, BugDoc
from repro.core.ddt import DDTConfig
from repro.core.predicates import Comparator, Conjunction, Predicate
from repro.core.session import DebugSession
from repro.core.stacked import DEFAULT_STACK_WIDTH
from repro.eval import match_synthetic, score_find_all, score_find_one
from repro.exec import ExecutorSpec
from repro.exec.synthetic import build_pipeline, build_space
from repro.service import JobGoal, JobResult, JobSpec, JobStatus, space_to_payload
from repro.service.service import report_fingerprint
from repro.synth import Scenario, make_suite

SYNTH_BUILDER = "repro.exec.synthetic:build_pipeline"
# A solver job may charge at most this many new executions (~3x the
# mean).  DDT FindAll's cost has a long tail on disjunctive causes; the
# cap keeps one seed's job mix from swinging the run's cost.  Solver
# sessions are serial, so a capped search stays deterministic.
SOLVER_BUDGET = 60
# The Section 5.1 generator's lower ranges, narrowed so one seed's
# suite costs about what another's does (the paper spans 3-15
# parameters of 5-30 values; the scalability figure covers the rest).
SUITE_SHAPE = dict(min_parameters=4, max_parameters=6, min_values=5, max_values=8)

# Section 5.1 suite x the three BugDoc strategies, cycled job by job.
_SOLVER_ALGORITHMS = (
    Algorithm.DECISION_TREES,
    Algorithm.SHORTCUT,
    Algorithm.STACKED_SHORTCUT,
)


class InlinePipeline:
    """The benchmark-owned in-process executor around a planted-law
    oracle (the traced run times its calls as ``pipeline.compute``)."""

    def __init__(self, oracle: Callable):
        self._oracle = oracle

    def __call__(self, instance):
        return self._oracle(instance)


@dataclasses.dataclass
class Job:
    """One debugging request plus the ground truth it is scored on."""

    job_id: str
    workflow: str
    algorithm: Algorithm
    goal: JobGoal
    seed: int
    space: object
    true_causes: list[Conjunction]
    oracle: Callable
    history: ExecutionHistory | None = None
    executor_spec: ExecutorSpec | None = None
    parallel_batches: bool = False
    budget: int | None = None

    def ddt_config(self) -> DDTConfig | None:
        if self.algorithm is not Algorithm.DECISION_TREES:
            return None
        return DDTConfig(find_all=self.goal is JobGoal.FIND_ALL, seed=self.seed)

    def spec(self) -> JobSpec:
        """The in-process submission of this job."""
        return JobSpec(
            job_id=self.job_id,
            executor=InlinePipeline(self.oracle),
            executor_spec=self.executor_spec,
            space=self.space,
            workflow=self.workflow,
            algorithm=self.algorithm,
            goal=self.goal,
            history=self.history,
            budget=self.budget,
            seed=self.seed,
            ddt_config=self.ddt_config(),
            parallel_batches=self.parallel_batches,
        )

    def payload(self) -> dict:
        """The ``POST /jobs`` body (the durable queue's codec shape)."""
        return {
            "job_id": self.job_id,
            "workflow": self.workflow,
            "algorithm": self.algorithm.value,
            "goal": self.goal.value,
            "seed": self.seed,
            "ddt_config": dataclasses.asdict(self.ddt_config()),
            "parallel_batches": self.parallel_batches,
            "executor_spec": self.executor_spec.to_wire(),
            "space": space_to_payload(self.space),
        }


def _a_success(pipeline, draws: int = 2000):
    """A succeeding instance of ``pipeline``, or None.

    A disjunctive planted law can cover the whole space (the generator
    rejects total conjuncts, not total unions).  Such an always-failing
    pipeline has nothing to debug -- Shortcut finds no success to
    contrast with -- so the suite leaves it out.
    """
    rng = random.Random(pipeline.name)
    for __ in range(draws):
        instance = pipeline.space.random_instance(rng)
        if pipeline.oracle(instance) is Outcome.SUCCEED:
            return instance
    return None


def _contrasting_history(pipeline, success, rng) -> ExecutionHistory:
    """Prior provenance that always holds a failure and a success.

    ``initial_history`` can come back without a failure on a narrow
    failure region (or without a success on a wide one); Shortcut and
    Stacked then have nothing to anchor on, so a planted failing
    instance (``failing_instance``) or a known success fills the gap
    instead of skipping the pipeline.
    """
    history = pipeline.initial_history(rng)
    if not history.failures:
        history.record(pipeline.failing_instance(rng), Outcome.FAIL)
    if not history.successes:
        history.record(success, Outcome.SUCCEED)
    return history


def _debuggable_suite(scenario, count: int, seed: int) -> list:
    """The first ``count`` pipelines of a scenario's suite that can fail
    and succeed, each with one known success.  ``make_suite`` draws
    pipelines in sequence, so a longer suite extends a shorter one."""
    extra = count // 5 + 10
    suite = make_suite(scenario, count + extra, seed=seed, **SUITE_SHAPE)
    kept = []
    for pipeline in suite:
        success = _a_success(pipeline)
        if success is not None:
            kept.append((pipeline, success))
    if len(kept) < count:
        raise RuntimeError(f"{scenario.value}: too few debuggable pipelines")
    return kept[:count]


def _solver_jobs(seed: int, count: int) -> list[Job]:
    """Each pipeline debugged by DDT FindAll, Shortcut and Stacked in turn;
    pipelines cycle through the three scenarios."""
    pipelines = -(-count // len(_SOLVER_ALGORITHMS))
    per_scenario = -(-pipelines // len(Scenario))
    suites = [
        _debuggable_suite(scenario, per_scenario, seed * 31 + index)
        for index, scenario in enumerate(Scenario)
    ]
    rng = random.Random(seed)
    jobs = []
    for index in range(count):
        slot = index // len(_SOLVER_ALGORITHMS)
        pipeline, success = suites[slot % len(suites)][slot // len(suites)]
        algorithm = _SOLVER_ALGORITHMS[index % len(_SOLVER_ALGORITHMS)]
        job_seed = rng.getrandbits(31)
        jobs.append(
            Job(
                job_id=f"solver-{index}",
                workflow=f"solver-{seed}-{index}",
                algorithm=algorithm,
                goal=(
                    JobGoal.FIND_ALL
                    if algorithm is Algorithm.DECISION_TREES
                    else JobGoal.FIND_ONE
                ),
                seed=job_seed,
                space=pipeline.space,
                true_causes=list(pipeline.true_causes),
                oracle=pipeline.oracle,
                history=_contrasting_history(
                    pipeline, success, random.Random(job_seed)
                ),
                budget=SOLVER_BUDGET,
            )
        )
    return jobs


def _planted(rng, params=(4, 6), domain=(3, 5), arity=(1, 2)):
    """A small ordinal space and one planted equality conjunction."""
    space = build_space(
        n_params=rng.randint(*params), domain=rng.randint(*domain)
    )
    names = rng.sample(list(space.names), rng.randint(*arity))
    fail_when = {name: rng.randrange(len(space.domain(name))) for name in names}
    return space, fail_when


def _synthetic_job(job_id, workflow, job_seed, space, fail_when, parallel):
    """A zero-work ``repro.exec.synthetic`` pipeline, DDT FindAll."""
    return Job(
        job_id=job_id,
        workflow=workflow,
        algorithm=Algorithm.DECISION_TREES,
        goal=JobGoal.FIND_ALL,
        seed=job_seed,
        space=space,
        true_causes=[
            Conjunction(
                Predicate(name, Comparator.EQ, value)
                for name, value in sorted(fail_when.items())
            )
        ],
        oracle=build_pipeline(fail_when=fail_when),
        executor_spec=ExecutorSpec.from_builder(
            SYNTH_BUILDER, fail_when=fail_when
        ),
        parallel_batches=parallel,
    )


def _dispatch_jobs(seed: int, count: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for index in range(count):
        space, fail_when = _planted(rng)
        job = _synthetic_job(
            f"dispatch-{index}", f"dispatch-{seed}-{index}",
            rng.getrandbits(31), space, fail_when, True,
        )
        # A failure in the prior history: Fig. 6 mode spends its budget
        # on speculative batches, not on random search for a failure.
        history = ExecutionHistory()
        failing = dict(space.random_instance(rng))
        failing.update(fail_when)
        history.record(Instance(failing), Outcome.FAIL)
        job.history = history
        jobs.append(job)
    return jobs


def _fleet_jobs(seed: int, count: int) -> list[Job]:
    """Every pipeline twice: two users debugging the same failure.

    Both copies share a workflow (so the service's cache serves one
    from the other) but search with their own seeds.  The durable
    queue carries no prior history, so each job finds its own failure.
    """
    rng = random.Random(seed)
    jobs = []
    for index in range(0, count, 2):
        space, fail_when = _planted(
            rng, params=(5, 5), domain=(4, 4), arity=(1, 1)
        )
        for copy in range(min(2, count - index)):
            jobs.append(
                _synthetic_job(
                    f"http-fleet-{index + copy}", f"http-fleet-{seed}-{index}",
                    rng.getrandbits(31), space, fail_when, False,
                )
            )
    return jobs


def warm_up_job(workload: str) -> Job:
    """A small fixed job that takes the workload's path once."""
    space = build_space(n_params=4, domain=3)
    job = _synthetic_job(
        "warm-up", "warm-up", 0, space, {"p0": 1}, workload == "dispatch"
    )
    if workload == "solver":
        job.executor_spec = None
    return job


def make_jobs(workload: str, seed: int, count: int) -> list[Job]:
    """The fixed job list of one workload; equal arguments, equal list."""
    if workload == "solver":
        return _solver_jobs(seed, count)
    if workload == "dispatch":
        return _dispatch_jobs(seed, count)
    if workload == "http-fleet":
        return _fleet_jobs(seed, count)
    raise ValueError(f"unknown workload {workload!r}")


class InlineBatches:
    """Speculative-batch semantics (Fig. 6 mode), run serially inline.

    A parallel session executes whole batches with no early stop; this
    backend keeps those semantics on one thread, so it is the inline
    serial twin of a ``parallel_batches`` job.
    """

    parallel = True

    @staticmethod
    def run_batch(tasks):
        return [task() for task in tasks]


def reference_fingerprint(job: Job) -> str:
    """The job's report fingerprint on the inline serial path."""
    session = DebugSession(
        job.oracle,
        job.space,
        history=job.history.copy() if job.history is not None else None,
        budget=InstanceBudget(job.budget),
        backend=InlineBatches() if job.parallel_batches else None,
    )
    bugdoc = BugDoc(session=session, seed=job.seed)
    run = bugdoc.find_all if job.goal is JobGoal.FIND_ALL else bugdoc.find_one
    report = run(
        job.algorithm,
        stack_width=DEFAULT_STACK_WIDTH,
        ddt_config=job.ddt_config(),
    )
    return report_fingerprint(
        JobResult(
            job_id=job.job_id,
            status=JobStatus.SUCCEEDED,
            report=report,
            budget_spent=session.budget.spent,
            new_executions=session.new_executions,
        )
    )


def f_measure(jobs: list[Job], causes: dict[str, list[Conjunction]]) -> float:
    """Job-weighted mean of the FindAll and FindOne suite F-measures.

    Each goal is scored with its own Section 5 formulas over the jobs
    that asked for it (Figs. 2-3), against the planted causes.  A job
    without a report scores as one that found no cause.
    """
    reports = {JobGoal.FIND_ALL: [], JobGoal.FIND_ONE: []}
    for job in jobs:
        reports[job.goal].append(
            match_synthetic(
                causes.get(job.job_id, []),
                job.true_causes,
                job.space,
                job.oracle,
                seed=job.seed,
            )
        )
    scored = [
        (len(reports[JobGoal.FIND_ALL]),
         score_find_all(reports[JobGoal.FIND_ALL]).f_measure),
        (len(reports[JobGoal.FIND_ONE]),
         score_find_one(reports[JobGoal.FIND_ONE]).f_measure),
    ]
    return sum(n * f for n, f in scored) / max(1, sum(n for n, __ in scored))

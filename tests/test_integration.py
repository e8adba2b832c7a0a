"""Cross-module integration tests: workflow engine + provenance +
algorithms + baselines working together, failure injection, and the
parallel-vs-serial equivalence guarantees."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.baselines import data_xray, explanation_tables, smac_search, SMACConfig
from repro.core import (
    Algorithm,
    BugDoc,
    Comparator,
    Conjunction,
    DDTConfig,
    DebugSession,
    Instance,
    InstanceBudget,
    Outcome,
    Parameter,
    ParameterKind,
    ParameterSpace,
    Predicate,
    debugging_decision_trees,
)
from repro.pipeline import (
    FlakyExecutor,
    Module,
    ParallelDebugSession,
    Workflow,
    WorkflowExecutor,
    threshold_evaluation,
)
from repro.provenance import (
    InMemoryProvenanceStore,
    RecordingExecutor,
    SQLiteProvenanceStore,
)
from repro.synth import Scenario, make_suite


class TestWorkflowToDebugging:
    """A real workflow executed, recorded, and debugged end to end."""

    def _build(self):
        space = ParameterSpace(
            [
                Parameter("threshold", (1, 2, 3, 4), ParameterKind.ORDINAL),
                Parameter("mode", ("sum", "max")),
                Parameter("scale", (1, 10), ParameterKind.ORDINAL),
            ]
        )
        workflow = Workflow("agg", space, sink=("aggregate", "out"))
        workflow.add_module(
            Module(
                "generate",
                lambda scale: [scale * i for i in range(5)],
                parameters=("scale",),
            )
        )
        workflow.add_module(
            Module(
                "aggregate",
                lambda data, mode, threshold: (
                    sum(data) if mode == "sum" else max(data)
                )
                / threshold,
                inputs=("data",),
                parameters=("mode", "threshold"),
            )
        )
        workflow.connect("generate", "out", "aggregate", "data")
        # succeed iff result >= 5: fails for mode=max, scale=1 (4/t < 5)
        # and for sum with scale=1, threshold >= 2 (10/t < 5 for t >= 3...).
        executor = WorkflowExecutor(workflow, threshold_evaluation(5.0))
        return space, executor

    def test_debug_through_provenance_store(self, tmp_path):
        space, executor = self._build()
        store = SQLiteProvenanceStore(str(tmp_path / "prov.db"))
        recording = RecordingExecutor(executor, store, "agg")

        bugdoc = BugDoc(recording, space, seed=0)
        report = bugdoc.find_all(
            Algorithm.DECISION_TREES,
            ddt_config=DDTConfig(find_all=True, tests_per_suspect=24),
        )
        assert report.causes
        # Everything the algorithms executed is in durable provenance.
        assert len(store) == bugdoc.instances_executed
        # Asserted causes are consistent with the stored provenance.
        history = store.to_history()
        for cause in report.causes:
            assert not history.refutes(cause)

    def test_ground_truth_of_toy_workflow(self):
        """Sanity-check the toy pipeline's failure law explicitly."""
        space, executor = self._build()
        for instance in space.instances():
            data = [instance["scale"] * i for i in range(5)]
            value = (
                sum(data) if instance["mode"] == "sum" else max(data)
            ) / instance["threshold"]
            expected = Outcome.SUCCEED if value >= 5.0 else Outcome.FAIL
            assert executor(instance) is expected


class TestParallelSerialEquivalence:
    def test_same_causes_found(self):
        suite = make_suite(
            Scenario.CONJUNCTION,
            2,
            seed=31,
            min_parameters=3,
            max_parameters=4,
            min_values=5,
            max_values=6,
        )
        for pipeline in suite:
            rng = random.Random(0)
            history = pipeline.initial_history(rng, size=10)
            serial = DebugSession(
                pipeline.oracle, pipeline.space, history=history.copy()
            )
            serial_result = debugging_decision_trees(
                serial, DDTConfig(find_all=True, tests_per_suspect=16, seed=0)
            )
            parallel = ParallelDebugSession(
                pipeline.oracle, pipeline.space, history=history.copy(), workers=4
            )
            parallel_result = debugging_decision_trees(
                parallel, DDTConfig(find_all=True, tests_per_suspect=16, seed=0)
            )
            serial_causes = {str(c) for c in serial_result.causes}
            parallel_causes = {str(c) for c in parallel_result.causes}
            # Both must assert sound causes; with identical seeds and
            # deterministic oracles the cause sets agree.
            assert serial_causes == parallel_causes


class TestFailureInjection:
    def test_flaky_executor_budget_refunds_keep_accounting_exact(self):
        space = ParameterSpace([Parameter("a", tuple(range(6)))])

        def oracle(instance):
            return Outcome.FAIL if instance["a"] == 0 else Outcome.SUCCEED

        flaky = FlakyExecutor(oracle, lambda call, inst: call % 3 == 0)
        session = DebugSession(flaky, space, budget=InstanceBudget(10))
        executed = 0
        for value in range(6):
            try:
                session.evaluate(Instance({"a": value}))
                executed += 1
            except RuntimeError:
                pass
        assert session.budget.spent == executed
        assert len(session.history.instances) == executed

    def test_bugdoc_survives_transient_failures_with_retry(self):
        space = ParameterSpace(
            [Parameter("a", (0, 1, 2)), Parameter("b", (0, 1, 2))]
        )

        def oracle(instance):
            return Outcome.FAIL if instance["a"] == 0 else Outcome.SUCCEED

        flaky = FlakyExecutor(oracle, lambda call, inst: call == 4)

        def retrying(instance):
            try:
                return flaky(instance)
            except RuntimeError:
                return flaky(instance)

        bugdoc = BugDoc(retrying, space, seed=0)
        report = bugdoc.find_all(Algorithm.DECISION_TREES)
        truth = Conjunction([Predicate("a", Comparator.EQ, 0)])
        assert any(c.semantically_equals(truth, space) for c in report.causes)


class TestGeneratedInstancesFeedBaselines:
    """The paper's protocol: explanation methods consume generated logs."""

    def test_bugdoc_history_beats_smac_history_for_xray(self):
        suite = make_suite(
            Scenario.CONJUNCTION,
            3,
            seed=33,
            min_parameters=3,
            max_parameters=4,
            min_values=5,
            max_values=6,
        )
        better_or_equal = 0
        for pipeline in suite:
            rng = random.Random(1)
            initial = pipeline.initial_history(rng, size=6)

            bug_session = DebugSession(
                pipeline.oracle, pipeline.space, history=initial.copy()
            )
            BugDoc(session=bug_session, seed=1).find_one(Algorithm.DECISION_TREES)
            budget = bug_session.new_executions

            smac_session = DebugSession(
                pipeline.oracle,
                pipeline.space,
                history=initial.copy(),
                budget=InstanceBudget(max(budget, 1)),
            )
            smac_search(smac_session, SMACConfig(iterations=max(budget, 1), seed=1))

            true_cause = pipeline.true_causes[0]
            xray_bugdoc = data_xray(bug_session.history, pipeline.space)
            xray_smac = data_xray(smac_session.history, pipeline.space)

            def hit(diagnoses):
                return any(
                    true_cause.subsumes(d, pipeline.space) for d in diagnoses
                )

            if hit(xray_bugdoc.diagnoses) >= hit(xray_smac.diagnoses):
                better_or_equal += 1
        assert better_or_equal >= 2  # BugDoc instances usually more useful

    def test_explanation_tables_consumes_ddt_history(self):
        suite = make_suite(
            Scenario.SINGLE_TRIPLE,
            1,
            seed=35,
            min_parameters=3,
            max_parameters=3,
            min_values=5,
            max_values=5,
        )
        pipeline = suite[0]
        rng = random.Random(2)
        session = DebugSession(
            pipeline.oracle,
            pipeline.space,
            history=pipeline.initial_history(rng, size=6),
        )
        BugDoc(session=session, seed=2).find_all(Algorithm.DECISION_TREES)
        result = explanation_tables(session.history, pipeline.space)
        for cause in result.asserted_causes():
            assert not session.history.refutes(cause)


class TestImportFootprint:
    """numpy is loaded only by the workload simulators that need it, so
    a CLI start or a spawned pool worker does not pay for it, and the
    engine never reaches for a thread pool."""

    @pytest.mark.parametrize(
        "module, absent",
        [
            ("repro", ("numpy",)),
            ("repro.exec.synthetic", ("numpy",)),
            ("repro.core", ("numpy", "concurrent.futures")),
        ],
    )
    def test_import_leaves_modules_unloaded(self, module, absent):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        code = (
            f"import sys, {module}; "
            f"print(sorted(m for m in {absent!r} if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

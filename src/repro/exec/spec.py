"""ExecutorSpec: a picklable, spawn-safe pipeline configuration.

A worker *process* cannot receive the parent's executor closure -- it
must rebuild the pipeline on its side of the fork/spawn boundary.  An
:class:`ExecutorSpec` is the shippable description: a ``module:qualname``
*builder* reference plus JSON-able keyword arguments.  The worker
imports the builder and calls it once, memoizing the built executor by
the spec's content fingerprint, so a warm worker pays the build cost
once per distinct pipeline.

Two construction paths cover the repo's pipelines:

* :meth:`ExecutorSpec.from_builder` references any importable factory
  (``repro.workloads.ml_pipeline:make_executor``, a benchmark module's
  top-level function, ...).
* :meth:`ExecutorSpec.from_workflow` serializes a declarative
  :class:`~repro.pipeline.workflow.Workflow` through
  :mod:`repro.pipeline.serialization` (the VisTrails-style structure
  JSON); module callables travel as import paths resolved into a
  :class:`~repro.pipeline.serialization.ModuleRegistry` on the worker.

The spawn-safety contract: everything a spec references must be
importable in a fresh interpreter (top-level functions of real modules;
no lambdas, no closures, no ``__main__``-only state beyond what
``multiprocessing`` ships for the main module).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from ..core.types import Executor, Outcome
from ..pipeline.evaluation import WorkflowExecutor, threshold_evaluation
from ..pipeline.serialization import ModuleRegistry, workflow_from_json, workflow_to_json
from ..pipeline.workflow import Workflow

__all__ = [
    "ExecutorSpec",
    "clear_artifact_cache",
    "artifact_cache_stats",
    "resolve_reference",
]


def resolve_reference(reference: str):
    """Import ``"module:qualname"`` and return the named object.

    Raises:
        ValueError: for a malformed reference.
        ImportError / AttributeError: when the module or attribute is
            missing -- surfaced verbatim so worker-side build failures
            name the exact broken reference.
    """
    module_name, _, qualname = reference.partition(":")
    if not module_name or not qualname:
        raise ValueError(
            f"executor reference {reference!r} must be 'module:qualname'"
        )
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class ExecutorSpec:
    """A serializable recipe for building an :class:`Executor`.

    Attributes:
        builder: ``module:qualname`` of a factory whose call returns an
            executor (``instance -> Outcome``).
        kwargs: JSON-able keyword arguments for the factory, stored as a
            canonical sorted tuple so equal specs hash equal.
    """

    builder: str
    kwargs: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if ":" not in self.builder:
            raise ValueError(
                f"builder {self.builder!r} must be 'module:qualname'"
            )
        if not isinstance(self.kwargs, tuple):
            object.__setattr__(
                self, "kwargs", _canonical_kwargs(dict(self.kwargs))
            )

    # -- Construction --------------------------------------------------------
    @classmethod
    def from_builder(cls, builder: str, **kwargs: object) -> "ExecutorSpec":
        """Spec for an importable zero-or-keyword-argument factory."""
        return cls(builder=builder, kwargs=_canonical_kwargs(kwargs))

    @classmethod
    def from_workflow(
        cls,
        workflow: Workflow,
        registry: Mapping[str, str],
        threshold: float | None = None,
        evaluation: str | None = None,
        crash_is_fail: bool = True,
    ) -> "ExecutorSpec":
        """Ship a declarative workflow (structure as JSON, code as paths).

        Args:
            workflow: the pipeline; serialized with
                :func:`~repro.pipeline.serialization.workflow_to_json`.
            registry: module-function name -> ``module:qualname`` import
                path, resolved worker-side into a
                :class:`~repro.pipeline.serialization.ModuleRegistry`.
            threshold: succeed iff the sink value is ``>=`` this (the
                paper's F-measure example).  Mutually exclusive with
                ``evaluation``.
            evaluation: ``module:qualname`` of a result -> Outcome
                callable for arbitrary evaluation procedures.
            crash_is_fail: forward to
                :class:`~repro.pipeline.evaluation.WorkflowExecutor`.
        """
        if (threshold is None) == (evaluation is None):
            raise ValueError("pass exactly one of threshold / evaluation")
        return cls.from_builder(
            f"{__name__}:build_workflow_executor",
            workflow_json=workflow_to_json(workflow, indent=None),
            registry=dict(registry),
            threshold=threshold,
            evaluation=evaluation,
            crash_is_fail=crash_is_fail,
        )

    # -- Identity ------------------------------------------------------------
    @functools.cached_property
    def fingerprint(self) -> str:
        """Content hash: the worker-side executor memo key (computed once
        per spec; the spec is frozen, so it cannot go stale)."""
        payload = json.dumps(
            [self.builder, [[k, v] for k, v in self.kwargs]],
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    # -- Wire transport ------------------------------------------------------
    def to_wire(self) -> dict[str, object]:
        """A JSON-able form for socket transport (no pickling).

        Only JSON-able kwargs survive the wire (true for both
        construction classmethods); nested tuples serialize as arrays
        and :meth:`from_wire` re-freezes them, so the fingerprint is
        preserved exactly across the round-trip.
        """
        return {
            "builder": self.builder,
            "kwargs": [[name, value] for name, value in self.kwargs],
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "ExecutorSpec":
        """Rebuild a spec from :meth:`to_wire` output (post-JSON)."""
        return cls(
            builder=str(payload["builder"]),
            kwargs=tuple(
                (str(name), _freeze(value))
                for name, value in payload["kwargs"]  # type: ignore[union-attr]
            ),
        )

    # -- Worker-side build ---------------------------------------------------
    def build(self) -> Executor:
        """Import the builder and construct the executor (worker side)."""
        factory = resolve_reference(self.builder)
        executor = factory(**dict(self.kwargs))
        if not callable(executor):
            raise TypeError(
                f"builder {self.builder!r} returned non-callable "
                f"{type(executor).__name__}"
            )
        return executor


def _canonical_kwargs(kwargs: Mapping[str, object]) -> tuple[tuple[str, object], ...]:
    """Sorted, hashable kwargs tuple (nested dicts/lists stay as-is for
    transport; only the top level needs canonical order for equality)."""
    return tuple(
        (name, _freeze(value)) for name, value in sorted(kwargs.items())
    )


def _freeze(value: object) -> object:
    """Recursively convert JSON containers to hashable tuples."""
    if isinstance(value, Mapping):
        return tuple((k, _freeze(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


# Worker-side warm cache for from_workflow data artifacts.  A worker
# that re-builds the same spec (a re-dispatched run after eviction, a
# repeated fingerprint after an executor-memo reset, N specs differing
# only in threshold) skips re-parsing the workflow JSON and re-importing
# the registry paths.  Safe to share: Workflow.execute builds all its
# per-run state locally (its only mutation is an idempotent topo-order
# memo), and each build still gets a private WorkflowExecutor.
_ARTIFACT_LOCK = threading.Lock()
_WORKFLOW_ARTIFACTS: dict[tuple[str, tuple[tuple[str, str], ...]], Workflow] = {}
_ARTIFACT_STATS = {"hits": 0, "misses": 0}
_ARTIFACT_CACHE_MAX = 64


def artifact_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the workflow-artifact warm cache."""
    with _ARTIFACT_LOCK:
        stats = dict(_ARTIFACT_STATS)
        stats["entries"] = len(_WORKFLOW_ARTIFACTS)
    return stats


def clear_artifact_cache() -> None:
    """Drop cached workflow artifacts (tests; memory pressure)."""
    with _ARTIFACT_LOCK:
        _WORKFLOW_ARTIFACTS.clear()
        _ARTIFACT_STATS["hits"] = 0
        _ARTIFACT_STATS["misses"] = 0


def build_workflow_executor(
    workflow_json: str,
    registry: object,
    threshold: float | None = None,
    evaluation: str | None = None,
    crash_is_fail: bool = True,
) -> Executor:
    """Worker-side factory for :meth:`ExecutorSpec.from_workflow`."""
    # The registry arrives either as a plain mapping (direct call) or as
    # the frozen pair-tuple an ExecutorSpec ships; dict() handles both,
    # including the empty tuple an empty registry freezes to.
    paths = (
        dict(registry)
        if isinstance(registry, Mapping)
        else {name: path for name, path in registry}  # type: ignore[union-attr]
    )
    cache_key = (
        hashlib.sha256(workflow_json.encode("utf-8")).hexdigest(),
        tuple(sorted((str(k), str(v)) for k, v in paths.items())),
    )
    with _ARTIFACT_LOCK:
        workflow = _WORKFLOW_ARTIFACTS.get(cache_key)
        if workflow is not None:
            _ARTIFACT_STATS["hits"] += 1
    if workflow is None:
        resolved = ModuleRegistry(
            {name: resolve_reference(path) for name, path in paths.items()}
        )
        workflow = workflow_from_json(workflow_json, resolved)
        with _ARTIFACT_LOCK:
            _ARTIFACT_STATS["misses"] += 1
            if len(_WORKFLOW_ARTIFACTS) >= _ARTIFACT_CACHE_MAX:
                _WORKFLOW_ARTIFACTS.pop(next(iter(_WORKFLOW_ARTIFACTS)))
            _WORKFLOW_ARTIFACTS[cache_key] = workflow
    if evaluation is not None:
        evaluate: Callable[[object], Outcome] = resolve_reference(evaluation)
    else:
        assert threshold is not None
        evaluate = threshold_evaluation(threshold)
    return WorkflowExecutor(workflow, evaluate, crash_is_fail=crash_is_fail)

"""Synthetic CPU-bound pipelines for the process-backend bench and tests.

The pipeline is a deterministic stand-in for the paper's expensive
black boxes: the outcome depends only on the instance (a planted
conjunction fails), and each run burns a configurable amount of work --
``mode="cpu"`` holds the GIL in a hashing loop (so in-process threads
cannot overlap it, which is exactly the gap the process pool closes),
``mode="sleep"`` blocks without CPU (the repo's established
latency-simulation mode, useful on single-core machines).

Fault injection is worker-side and file-coordinated so it works across
process boundaries: ``crash_on`` / ``hang_on`` / ``raise_on`` name a
parameter-value assignment that triggers the fault (a dead worker, a
hung run, or a pipeline that raises while its worker survives), and an optional ``once_path``
sentinel file makes the fault one-shot -- the first matching run
creates the file and faults; the retry (on a replacement worker, or any
later attempt) sees the file and runs normally.  That is the shape the
differential tests need: an injected crash or hang must not change the
final report, only the pool's recovery counters.

Everything here is importable by name in a fresh interpreter, which is
the :class:`~repro.exec.spec.ExecutorSpec` spawn-safety contract.
"""

from __future__ import annotations

import hashlib
import os
import time

from ..core.types import Instance, Outcome, Parameter, ParameterKind, ParameterSpace

__all__ = ["build_space", "build_pipeline", "default_fail_when"]


def build_space(n_params: int = 4, domain: int = 5) -> ParameterSpace:
    """``n_params`` ordinal parameters ``p0..``, each with domain 0..domain-1."""
    return ParameterSpace(
        [
            Parameter(f"p{i}", tuple(range(domain)), ParameterKind.ORDINAL)
            for i in range(n_params)
        ]
    )


def default_fail_when(n_params: int = 4) -> dict[str, int]:
    """The planted root cause: ``p0 = 1 AND p1 = 2`` (fits any domain>=3)."""
    del n_params
    return {"p0": 1, "p1": 2}


def _matches(instance: Instance, assignment: dict[str, int] | None) -> bool:
    if not assignment:
        return False
    return all(instance.get(name) == value for name, value in assignment.items())


def _burn_cpu(iterations: int) -> bytes:
    """Deterministic GIL-holding work: chained small-block sha256."""
    digest = b"repro-process-backend"
    for _ in range(iterations):
        digest = hashlib.sha256(digest).digest()
    return digest


class SyntheticPipeline:
    """Deterministic executor with configurable work and fault injection."""

    def __init__(
        self,
        fail_when: dict[str, int],
        work_iterations: int,
        sleep_seconds: float,
        mode: str,
        crash_on: dict[str, int] | None,
        crash_once_path: str | None,
        crash_exit_code: int,
        hang_on: dict[str, int] | None,
        hang_once_path: str | None,
        hang_seconds: float,
        raise_on: dict[str, int] | None = None,
    ):
        self.fail_when = fail_when
        self.work_iterations = work_iterations
        self.sleep_seconds = sleep_seconds
        self.mode = mode
        self.crash_on = crash_on
        self.crash_once_path = crash_once_path
        self.crash_exit_code = crash_exit_code
        self.hang_on = hang_on
        self.hang_once_path = hang_once_path
        self.hang_seconds = hang_seconds
        self.raise_on = raise_on

    def _fault_armed(self, once_path: str | None) -> bool:
        """True when the fault should fire; one-shot via the sentinel file.

        ``O_CREAT | O_EXCL`` makes the create atomic across processes:
        exactly one matching run wins the race and faults.
        """
        if once_path is None:
            return True
        try:
            os.close(os.open(once_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True

    def __call__(self, instance: Instance) -> Outcome:
        if _matches(instance, self.crash_on) and self._fault_armed(
            self.crash_once_path
        ):
            # Hard death, not an exception: models a segfaulting or
            # OOM-killed pipeline that takes its worker down with it.
            os._exit(self.crash_exit_code)
        if _matches(instance, self.hang_on) and self._fault_armed(
            self.hang_once_path
        ):
            time.sleep(self.hang_seconds)
        if _matches(instance, self.raise_on):
            raise ValueError(f"injected pipeline error on {instance.as_dict()}")
        if self.mode == "cpu":
            if self.work_iterations:
                _burn_cpu(self.work_iterations)
        elif self.mode == "sleep":
            if self.sleep_seconds:
                time.sleep(self.sleep_seconds)
        else:
            raise ValueError(f"unknown work mode {self.mode!r}")
        return Outcome.FAIL if _matches(instance, self.fail_when) else Outcome.SUCCEED


def build_pipeline(
    fail_when: object = None,
    work_iterations: int = 0,
    sleep_seconds: float = 0.0,
    mode: str = "cpu",
    crash_on: object = None,
    crash_once_path: str | None = None,
    crash_exit_code: int = 13,
    hang_on: object = None,
    hang_once_path: str | None = None,
    hang_seconds: float = 3600.0,
    raise_on: object = None,
) -> SyntheticPipeline:
    """ExecutorSpec-friendly factory (all arguments JSON-able).

    ``fail_when`` / ``crash_on`` / ``hang_on`` / ``raise_on`` accept dicts or the
    frozen pair-tuples an :class:`~repro.exec.spec.ExecutorSpec` ships.
    """
    return SyntheticPipeline(
        fail_when=_as_assignment(fail_when) or default_fail_when(),
        work_iterations=int(work_iterations),
        sleep_seconds=float(sleep_seconds),
        mode=mode,
        crash_on=_as_assignment(crash_on),
        crash_once_path=crash_once_path,
        crash_exit_code=int(crash_exit_code),
        hang_on=_as_assignment(hang_on),
        hang_once_path=hang_once_path,
        hang_seconds=float(hang_seconds),
        raise_on=_as_assignment(raise_on),
    )


def _as_assignment(value: object) -> dict[str, int] | None:
    """Normalize dicts / frozen pair-tuples / None to a plain dict."""
    if value is None:
        return None
    if isinstance(value, dict):
        return dict(value)
    return {name: val for name, val in value}  # type: ignore[union-attr]

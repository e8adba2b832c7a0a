"""repro: a full reproduction of BugDoc (Lourenço, Freire & Shasha, SIGMOD 2020).

BugDoc automatically infers minimal definitive root causes of failures
in black-box computational pipelines by iteratively creating and
executing new pipeline instances.  This package provides:

* :mod:`repro.core` -- the debugging algorithms (Shortcut, Stacked
  Shortcut, Debugging Decision Trees) and the root-cause model;
* :mod:`repro.pipeline` -- a workflow engine and execution engines,
  including the parallel dispatcher;
* :mod:`repro.provenance` -- execution-history capture and stores;
* :mod:`repro.service` -- the concurrent debugging job service: a
  shared scheduler, a cross-session execution cache, and the
  :class:`~repro.service.DebugService` front end;
* :mod:`repro.exec` -- the process-level execution subsystem: a warm,
  elastic pool of spawn-safe pipeline worker processes
  (:class:`~repro.exec.ProcessPool`) and the job progress event bus
  (:class:`~repro.exec.EventBus`);
* :mod:`repro.baselines` -- Data X-Ray, Explanation Tables, SMAC, and
  random search, reimplemented for comparison;
* :mod:`repro.synth` -- the synthetic pipeline benchmark of Section 5.1;
* :mod:`repro.workloads` -- the real-world case-study pipelines of
  Section 5.3 (ML classification, Data Polygamy, GAN training,
  DBSherlock) as laptop-scale simulators (imported on demand, so
  ``import repro`` does not load numpy);
* :mod:`repro.eval` -- the paper's evaluation protocol and metrics.

Quickstart::

    from repro.core import BugDoc, Algorithm
    from repro.workloads import ml_pipeline

    executor = ml_pipeline.make_executor()
    history = ml_pipeline.table1_history(executor)
    bugdoc = BugDoc(executor, ml_pipeline.make_space(), history=history)
    report = bugdoc.find_one(Algorithm.SHORTCUT)
    print(report.explanation)   # library_version = '2.0'
"""

from . import (
    baselines,
    core,
    eval,
    exec,
    extensions,
    pipeline,
    provenance,
    service,
    synth,
)
from .core import (
    Algorithm,
    BugDoc,
    BugDocReport,
    Comparator,
    Conjunction,
    DDTConfig,
    DebugSession,
    Disjunction,
    ExecutionHistory,
    Instance,
    InstanceBudget,
    Outcome,
    Parameter,
    ParameterKind,
    ParameterSpace,
    Predicate,
)

__version__ = "1.0.0"

__all__ = [
    "Algorithm",
    "BugDoc",
    "BugDocReport",
    "Comparator",
    "Conjunction",
    "DDTConfig",
    "DebugSession",
    "Disjunction",
    "ExecutionHistory",
    "Instance",
    "InstanceBudget",
    "Outcome",
    "Parameter",
    "ParameterKind",
    "ParameterSpace",
    "Predicate",
    "__version__",
    "baselines",
    "core",
    "eval",
    "exec",
    "extensions",
    "pipeline",
    "provenance",
    "service",
    "synth",
]

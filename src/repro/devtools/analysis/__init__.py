"""Whole-program analysis engine behind the DI/EX/DX/DP/SD rule families.

``repro.devtools.analysis`` grows the per-file linter of
:mod:`repro.devtools` into a project-wide pass:

* :mod:`~repro.devtools.analysis.model` -- module symbol table, import
  graph, and cross-module call resolution built on the per-file parse
  layer;
* :mod:`~repro.devtools.analysis.intervals` -- the interval abstract
  domain used by the domain-invariant (DI) rules, including the
  monotone-fraction lemma that proves the beta-trust form
  ``(S + 1) / (S + F + 2)`` lies in ``(0, 1)``;
* :mod:`~repro.devtools.analysis.contracts` -- the declarative
  contract registry mapping dotted names to numeric domains
  (``repro.trust.records.beta_trust -> (0, 1)``);
* :mod:`~repro.devtools.analysis.cache` -- the content-hash keyed
  cross-file cache under ``.lint-cache/`` that makes re-runs
  incremental (an unchanged tree re-analyzes zero files);
* :mod:`~repro.devtools.analysis.effects` -- per-function I/O effect
  summaries (write/flush/fsync/rename/dir-fsync/ack plus named effects
  such as ``wal_append``) flattened through the call graph, and the
  :class:`EffectRegistry` of durability contracts that modules extend
  with ``__effect_contracts__`` declarations;
* ``rules_domain`` / ``rules_exceptions`` / ``rules_deadcode`` -- the
  DI, EX, and DX rule families;
* ``rules_durability`` / ``rules_serialization`` -- the DP (durability
  protocol) and SD (serialization contract) rule families built on the
  effect summaries.
"""

from repro.devtools.analysis.cache import AnalysisCache
from repro.devtools.analysis.contracts import (
    ContractRegistry,
    FunctionContract,
    default_registry,
)
from repro.devtools.analysis.effects import (
    EffectEvent,
    EffectRegistry,
    FunctionEffects,
    default_effect_registry,
    effect_summaries,
)
from repro.devtools.analysis.intervals import Interval
from repro.devtools.analysis.model import AnalysisModel, ModuleInfo, get_analysis

__all__ = [
    "AnalysisCache",
    "AnalysisModel",
    "ContractRegistry",
    "EffectEvent",
    "EffectRegistry",
    "FunctionContract",
    "FunctionEffects",
    "Interval",
    "ModuleInfo",
    "default_effect_registry",
    "default_registry",
    "effect_summaries",
    "get_analysis",
]

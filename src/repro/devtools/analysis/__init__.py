"""Whole-program analysis engine behind the DX/DP rule families.

``repro.devtools.analysis`` grows the per-file linter of
:mod:`repro.devtools` into a project-wide pass:

* :mod:`~repro.devtools.analysis.model` -- module symbol table, import
  resolution, and cross-module call resolution built on the per-file
  parse layer;
* :mod:`~repro.devtools.analysis.effects` -- per-function I/O effect
  summaries (write/flush/fsync/rename/dir-fsync/ack plus named effects
  such as ``wal_append``) flattened through the call graph, and the
  :class:`EffectRegistry` of durability contracts that modules extend
  with ``__effect_contracts__`` declarations;
* ``rules_deadcode`` / ``rules_durability`` -- the DX (dead code) and
  DP (durability protocol) rule families.
"""

from repro.devtools.analysis.effects import (
    EffectEvent,
    EffectRegistry,
    FunctionEffects,
    default_effect_registry,
    effect_summaries,
)
from repro.devtools.analysis.model import AnalysisModel, ModuleInfo, get_analysis

__all__ = [
    "AnalysisModel",
    "EffectEvent",
    "EffectRegistry",
    "FunctionEffects",
    "ModuleInfo",
    "default_effect_registry",
    "effect_summaries",
    "get_analysis",
]

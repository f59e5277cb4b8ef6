"""Numeric-hygiene rules: the float discipline the trust math needs.

Trust, suspicion, and AR model-error values are accumulated floats --
sums of products of beta-function outputs.  Exact ``==``/``!=`` on
them is a latent bug: two mathematically equal trust values differ in
the last ulp after different accumulation orders (exactly what the
engine's flush batching produces), so equality-gated branches flip
nondeterministically.  Likewise, unseeded randomness in experiment
code silently destroys the reproducibility contract every result in
EXPERIMENTS.md depends on, and ``except Exception: pass`` hides the
corruption both introduce.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.devtools.core import Finding, Rule, SourceFile, register
from repro.devtools.project import ProjectModel

_SENSITIVE_WORDS = {
    "trust", "trusts", "suspicion", "suspicious", "susp",
    "error", "err", "errors", "residual",
}
_COUNT_PREFIXES = ("n_", "num_", "count")
_NP_RANDOM_RE = re.compile(r"^(np|numpy)\.random\.(\w+)$")
_SEEDED_NP_ATTRS = {"default_rng", "Generator", "SeedSequence", "Philox", "PCG64"}


def _name_words(name: str) -> Set[str]:
    return set(re.split(r"[^a-z0-9]+", name.lower())) - {""}


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return None


def _is_sensitive(node: ast.AST) -> bool:
    name = _terminal_name(node)
    if name is None or name.startswith(_COUNT_PREFIXES):
        return False
    return bool(_name_words(name) & _SENSITIVE_WORDS)


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_exact_literal(node: ast.AST) -> bool:
    """int/bool/str/None literals -- equality on these is fine."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and not isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    id = "NH01"
    name = "float-equality-on-trust-values"
    rationale = (
        "Trust/suspicion/model-error floats are order-of-accumulation "
        "dependent; == / != on them flips on the last ulp. Compare with "
        "a tolerance or an inequality that covers the degenerate case."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        for file in files:
            in_trust_package = "repro/trust/" in file.relpath
            context: List[str] = []
            yield from self._walk(file, file.tree, context, in_trust_package)

    def _walk(self, file, node, context, in_trust_package) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._walk(
                    file, child, context + [child.name], in_trust_package
                )
                continue
            if isinstance(child, ast.Compare):
                yield from self._check_compare(file, child, context, in_trust_package)
            yield from self._walk(file, child, context, in_trust_package)

    def _check_compare(self, file, node, context, in_trust_package) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            sides = (left, right)
            if any(_is_exact_literal(side) for side in sides):
                continue
            sensitive = any(_is_sensitive(side) for side in sides)
            float_lit = any(_is_float_literal(side) for side in sides)
            context_words: Set[str] = set()
            for name in context:
                context_words |= _name_words(name)
            context_sensitive = bool(context_words & _SENSITIVE_WORDS)
            if sensitive or (float_lit and (context_sensitive or in_trust_package)):
                yield self.finding(
                    file,
                    node.lineno,
                    "float equality on a trust/suspicion/error value: "
                    f"`{ast.unparse(node).strip()}` -- use a tolerance or "
                    "an inequality",
                )
            break  # one finding per comparison chain


@register
class UnseededRandomRule(Rule):
    id = "NH02"
    name = "unseeded-randomness-in-experiments"
    rationale = (
        "Experiment results are published numbers (EXPERIMENTS.md); all "
        "randomness must flow through an explicitly seeded "
        "numpy.random.Generator so every figure is reproducible."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        for file in files:
            parts = file.relpath.split("/")
            if "experiments" not in parts:
                continue
            for node in ast.walk(file.tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    module = getattr(node, "module", None) or ""
                    names = [alias.name for alias in node.names]
                    if module == "random" or "random" in names and module == "":
                        if isinstance(node, ast.Import) and any(
                            alias.name == "random" for alias in node.names
                        ):
                            yield self.finding(
                                file,
                                node.lineno,
                                "stdlib `random` in experiment code; use a "
                                "seeded numpy.random.Generator",
                            )
                if not isinstance(node, ast.Call):
                    continue
                func_src = ast.unparse(node.func)
                match = _NP_RANDOM_RE.match(func_src)
                if match and match.group(2) not in _SEEDED_NP_ATTRS:
                    yield self.finding(
                        file,
                        node.lineno,
                        f"global-state randomness `{func_src}(...)` in "
                        "experiment code; draw from a passed-in Generator",
                    )
                    continue
                if match and match.group(2) == "default_rng" and not (
                    node.args or node.keywords
                ):
                    yield self.finding(
                        file,
                        node.lineno,
                        "`default_rng()` without a seed in experiment code",
                    )
                    continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "default_rng"
                    and not (node.args or node.keywords)
                ):
                    yield self.finding(
                        file,
                        node.lineno,
                        "`default_rng()` without a seed in experiment code",
                    )


@register
class SilentExceptRule(Rule):
    id = "NH03"
    name = "silent-exception-swallow"
    rationale = (
        "`except Exception: pass` hides numeric corruption (NaNs, failed "
        "refits, torn state) until it has compounded through trust "
        "updates; handle, log, or narrow the exception type."
    )

    def run(self, project: ProjectModel, files: List[SourceFile]) -> Iterator[Finding]:
        for file in files:
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield self.finding(
                        file, node.lineno, "bare `except:` swallows everything "
                        "including KeyboardInterrupt; name the exceptions"
                    )
                    continue
                if not self._is_broad(node.type):
                    continue
                if self._body_is_silent(node.body):
                    yield self.finding(
                        file,
                        node.lineno,
                        "silent `except Exception: pass` -- handle, log, or "
                        "narrow the exception type",
                    )

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        names: List[str] = []
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for node in nodes:
            name = _terminal_name(node)
            if name is not None:
                names.append(name)
        return any(name in ("Exception", "BaseException") for name in names)

    @staticmethod
    def _body_is_silent(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True

"""Backend-contract family (RPL-B): the padding-mask guard on gathers.

The compiled kernel (``repro.engine.stencil``) and the rules' own
``step_batch`` kernels are trusted to be bitwise-identical.  One
statically checkable obligation backs that trust:

* RPL-B002 — the ``-1`` padding-mask contract.  Irregular-graph
  neighbor tables are padded with ``-1``; using a neighbor slot as a
  gather index without masking turns padding into vertex 0's state and
  corrupts results only on non-regular graphs (the least-tested path).
  The check is scope-local and conservative: a function that gathers
  through values traced to ``.neighbors`` must also contain a guard —
  a ``>= 0`` / ``== -1`` style comparison on table values, a
  ``degrees`` slice, an ``is_regular`` gate, a ``*mask*`` name, or
  ``np.take(..., mode="clip")``.  Any one guard clears the whole
  function scope.  It scans every library module, the stencil plans
  included.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from .core import Checker, Finding, Module, Project, register_checker

_GUARD_ATTRS = {"degrees", "is_regular"}


@register_checker
class BackendContractChecker(Checker):
    family = "backend-contract"
    rules = {
        "RPL-B002": (
            "neighbor-table value used as a gather index with no padding "
            "guard in scope — padded -1 slots must be masked (compare "
            "against 0/-1, slice by degrees, gate on is_regular, or "
            "take(..., mode='clip') plus a mask)"
        ),
    }

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.library_modules():
            yield from self._check_padding(module)

    # -- B002: padding-mask contract ----------------------------------

    def _check_padding(self, module: Module) -> Iterable[Finding]:
        # Analysis scope = outermost function: nested defs are closures
        # over the same tables and guards, so they share their parent's
        # verdict instead of being re-checked in isolation.
        for func in self._outermost_functions(module.tree):
            yield from self._check_scope(module, func)

    @staticmethod
    def _outermost_functions(tree: ast.AST) -> List[ast.AST]:
        out: List[ast.AST] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append(child)
                else:
                    visit(child)

        visit(tree)
        return out

    def _check_scope(
        self, module: Module, func: ast.AST
    ) -> Iterable[Finding]:
        derived = self._table_derived_names(func)
        if self._has_guard(func, derived):
            return
        for node in ast.walk(func):
            index_expr = None
            if isinstance(node, ast.Subscript):
                index_expr = node.slice
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "take"
                and node.args
            ):
                # np.take(arr, idx) vs arr.take(idx): index is the last
                # positional (or the `indices` keyword)
                index_expr = node.args[1] if len(node.args) > 1 else node.args[0]
                for kw in node.keywords:
                    if kw.arg == "indices":
                        index_expr = kw.value
            if index_expr is None:
                continue
            if self._mentions_table(index_expr, derived):
                yield Finding(
                    module.relpath,
                    node.lineno,
                    node.col_offset + 1,
                    "RPL-B002",
                    (
                        "neighbor-table value used as a gather index without "
                        "a padding-mask guard in this function — -1 padding "
                        "slots would read vertex 0"
                    ),
                )

    @staticmethod
    def _table_derived_names(func: ast.AST) -> Set[str]:
        """Names assigned (or loop-bound) from ``.neighbors`` data."""

        def mentions(node: ast.AST, names: Set[str]) -> bool:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "neighbors":
                    return True
                if isinstance(sub, ast.Name) and sub.id in names:
                    return True
            return False

        def bind_targets(target: ast.AST, names: Set[str]) -> None:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)

        derived: Set[str] = set()
        for _ in range(3):  # chase short assignment chains to a fixpoint
            before = len(derived)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and mentions(node.value, derived):
                    for target in node.targets:
                        bind_targets(target, derived)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if mentions(node.value, derived):
                        bind_targets(node.target, derived)
                elif isinstance(node, ast.For) and mentions(node.iter, derived):
                    bind_targets(node.target, derived)
                elif isinstance(node, ast.comprehension) and mentions(
                    node.iter, derived
                ):
                    bind_targets(node.target, derived)
            if len(derived) == before:
                break
        return derived

    @staticmethod
    def _mentions_table(node: ast.AST, derived: Set[str]) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "neighbors":
                return True
            if isinstance(sub, ast.Name) and sub.id in derived:
                return True
        return False

    def _has_guard(self, func: ast.AST, derived: Set[str]) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                touches = any(self._mentions_table(o, derived) for o in operands)
                sentinel = any(
                    isinstance(o, ast.Constant) and o.value in (0, -1)
                    for o in operands
                )
                if touches and sentinel:
                    return True
            elif isinstance(node, ast.Attribute) and node.attr in _GUARD_ATTRS:
                return True
            elif isinstance(node, ast.Name) and "mask" in node.id.lower():
                return True
            elif isinstance(node, ast.Attribute) and "mask" in node.attr.lower():
                return True
            elif isinstance(node, ast.keyword) and node.arg == "mode":
                if (
                    isinstance(node.value, ast.Constant)
                    and node.value.value == "clip"
                ):
                    return True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in ast.walk(node.args):
                    if isinstance(arg, ast.arg) and "mask" in arg.arg.lower():
                        return True
        return False

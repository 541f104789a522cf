"""Plan-token authority family (RPL-P): Rule overrides must re-token.

The execution-plan cache (``repro.engine.plans``) keys compiled
steppers on ``(rule type, plan_token())``.  At runtime,
``rule_plan_token`` walks the MRO and *withholds* the token whenever a
subclass overrides ``step_batch`` / ``kernel_spec`` / ``update_vertex``
without also redefining ``plan_token`` — inherited tokens could alias
two rules with different dynamics onto one cache entry.  That runtime
check fails soft (the cache is silently disabled and every batch
recompiles); this checker makes the same condition fail lint.

Opting out is explicit: a class that genuinely wants the uncached
fallback carries ``# reprolint: disable=RPL-P001`` on its ``class``
line (or defines ``plan_token`` returning ``None``, the base idiom).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, List, Set

from .core import Checker, Finding, Module, Project, dotted_parts, register_checker

#: Overriding any of these changes the rule's dynamics or its compiled
#: kernel, so the cache identity must be restated alongside.
_AUTHORITY_METHODS = ("step_batch", "kernel_spec", "update_vertex")


@dataclass
class ClassInfo:
    """One class definition as seen across the linted modules."""

    name: str
    module: Module
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    attrs: Set[str] = field(default_factory=set)


def collect_classes(project: Project) -> List[ClassInfo]:
    """Every class defined in library modules, with body-level attrs."""
    out: List[ClassInfo] = []
    for module in project.library_modules():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = ClassInfo(name=node.name, module=module, node=node)
            for base in node.bases:
                dotted = dotted_parts(base)
                if dotted is not None:
                    info.bases.append(dotted.split(".")[-1])
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.attrs.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            info.attrs.add(target.id)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    info.attrs.add(stmt.target.id)
            out.append(info)
    return out


def derived_from(classes: List[ClassInfo], seeds: Set[str]) -> List[ClassInfo]:
    """Classes transitively deriving from any seed name (by simple name).

    Name-based rather than import-resolved: fixtures and tests subclass
    ``Rule`` under exactly that name, and a false
    link through an unrelated same-named class is harmless (the checker
    only ever *adds* contract obligations).
    """
    known = set(seeds)
    matched: List[ClassInfo] = []
    changed = True
    while changed:
        changed = False
        for info in classes:
            if info.name in known:
                continue
            if any(base in known for base in info.bases):
                known.add(info.name)
                matched.append(info)
                changed = True
    return matched


@register_checker
class PlanTokenChecker(Checker):
    family = "plan-token"
    rules = {
        "RPL-P001": (
            "Rule subclass overrides step_batch/kernel_spec/update_vertex "
            "without redefining plan_token — the stepper cache is silently "
            "disabled; define plan_token (return None to opt out "
            "explicitly) or suppress with `# reprolint: disable=RPL-P001`"
        ),
    }

    def check(self, project: Project) -> Iterable[Finding]:
        classes = collect_classes(project)
        for info in derived_from(classes, seeds={"Rule"}):
            overridden = [m for m in _AUTHORITY_METHODS if m in info.attrs]
            if not overridden or "plan_token" in info.attrs:
                continue
            yield Finding(
                info.module.relpath,
                info.node.lineno,
                info.node.col_offset + 1,
                "RPL-P001",
                (
                    f"class {info.name} overrides "
                    f"{'/'.join(overridden)} but not plan_token; the plan "
                    "cache will silently skip this rule — define "
                    "plan_token (None opts out) or add "
                    "`# reprolint: disable=RPL-P001`"
                ),
            )

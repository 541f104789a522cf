"""CLI/docs drift family (RPL-C): docs must match the real program.

Three checks, all driven from the *actual* artifacts rather than a
hand-maintained list:

* RPL-C001 — every ``--flag`` the argparse tree accepts must appear in
  README.md (its flag tables / quickstarts).  Flags are harvested by
  walking ``repro.cli.build_parser()`` including all subparsers, so a
  newly added option fails lint until it is documented.  Findings are
  anchored at the ``add_argument`` site in ``src/repro/cli.py``.
* RPL-C002 — dotted ``repro.*`` cross-references and backticked repo
  paths in README.md / docs/*.md must resolve against the source tree.
* RPL-C003 — every documented ``repro-dynamo`` invocation must parse
  against the real parser.
* RPL-C004 — retired modules must not be referenced from README.md /
  docs/*.md.  Currently only ``repro.core.batch`` is retired; its docs
  live in the module docstring (which is exempt — only prose docs are
  scanned), so any surviving reference is stale guidance.

These checkers read real files, so they run only with a repo root
(``requires_root``) and are skipped for in-memory fixtures.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .core import Checker, Finding, Project, register_checker

_FENCE = re.compile(r"^```")
#: shell operators that end the repro-dynamo argument list on a doc line
_SHELL_BREAK = re.compile(r"\s(?:\|\||\||&&|>|2>|<)\s")

#: dotted module/attribute references like ``repro.engine.run_batch``
_DOTTED_REF = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: backticked repo-relative paths under a known top-level directory
_PATH_REF = re.compile(
    r"`((?:src|tools|docs|tests|benchmarks|examples|results)/[\w\-./]+)`"
)

#: retired dotted module prefixes that prose docs must no longer cite
RETIRED_MODULES = ("repro.core.batch",)


def iter_doc_files(root: Path) -> Iterator[Path]:
    yield root / "README.md"
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def extract_invocations(text: str) -> Iterator[Tuple[int, str]]:
    """Yield (line_number, command_string) for repro-dynamo doc lines."""
    in_block = False
    pending: str = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if _FENCE.match(line.strip()):
            in_block = not in_block
            pending = ""
            continue
        if not in_block:
            continue
        if pending:
            line = pending + " " + line.strip()
            lineno = pending_line
            pending = ""
        stripped = line.strip()
        if stripped.startswith("$ "):
            stripped = stripped[2:]
        if not stripped.startswith("repro-dynamo"):
            continue
        if stripped.endswith("\\"):
            pending = stripped[:-1].rstrip()
            pending_line = lineno
            continue
        # cut at shell operators and inline comments
        stripped = _SHELL_BREAK.split(stripped)[0]
        stripped = stripped.split(" #")[0].rstrip()
        yield lineno, stripped


def check_invocation(
    parser: argparse.ArgumentParser, command: str
) -> Optional[str]:
    """Parse one command; returns an error string or None."""
    try:
        argv = shlex.split(command)[1:]
    except ValueError as exc:
        return f"unparseable shell syntax: {exc}"
    # argparse prints usage to stderr and raises SystemExit on bad args
    sink = io.StringIO()
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return sink.getvalue().strip().splitlines()[-1]
    return None


def _load_parser(root: Path) -> argparse.ArgumentParser:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.cli import build_parser

    return build_parser()


def _iter_parsers(
    parser: argparse.ArgumentParser, path: str = ""
) -> Iterator[Tuple[str, argparse.ArgumentParser]]:
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen: Set[int] = set()
            for name, sub in action.choices.items():
                if id(sub) in seen:
                    continue
                seen.add(id(sub))
                yield from _iter_parsers(sub, f"{path} {name}".strip())


def collect_cli_flags(
    parser: argparse.ArgumentParser,
) -> Dict[str, List[str]]:
    """All long option strings -> the subcommand paths offering them."""
    flags: Dict[str, List[str]] = {}
    for path, sub in _iter_parsers(parser):
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    flags.setdefault(opt, []).append(path or "<top-level>")
    return flags


def _module_top_level_names(path: Path) -> Set[str]:
    names: Set[str] = set()
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return names
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def resolve_dotted_ref(root: Path, ref: str) -> bool:
    """Does ``repro.a.b[.attr]`` name a real module / top-level attr?"""
    parts = ref.split(".")
    for split in range(len(parts), 0, -1):
        base = root / "src" / Path(*parts[:split])
        as_module = base.with_suffix(".py")
        as_package = base / "__init__.py"
        if as_package.exists():
            module_file = as_package
        elif as_module.exists():
            module_file = as_module
        else:
            continue
        if split == len(parts):
            return True
        # one attribute hop is checked; deeper chains (attr of attr)
        # are runtime objects the AST cannot see — accept them
        if split < len(parts) - 1:
            return True
        return parts[split] in _module_top_level_names(module_file)
    return False


@register_checker
class DocsDriftChecker(Checker):
    family = "docs"
    requires_root = True
    rules = {
        "RPL-C001": (
            "argparse flag missing from README — every CLI option must "
            "appear in the README flag tables"
        ),
        "RPL-C002": (
            "dangling cross-reference in docs — dotted repro.* name or "
            "repo path does not resolve against the source tree"
        ),
        "RPL-C003": (
            "documented repro-dynamo invocation does not parse against "
            "the real CLI parser"
        ),
        "RPL-C004": (
            "docs reference a retired module — point readers at the "
            "replacement API instead"
        ),
    }

    def check(self, project: Project) -> Iterable[Finding]:
        root = project.root
        assert root is not None  # requires_root
        try:
            parser = _load_parser(root)
        except Exception as exc:  # pragma: no cover - import environment
            yield Finding(
                "README.md", 1, 1, "RPL-C003",
                f"cannot import repro.cli to validate docs: {exc!r}",
            )
            return
        yield from self._check_flag_coverage(root, parser)
        yield from self._check_cross_references(root)
        yield from self._check_invocations(root, parser)

    # -- C001: flag coverage ------------------------------------------

    def _check_flag_coverage(
        self, root: Path, parser: argparse.ArgumentParser
    ) -> Iterable[Finding]:
        readme = root / "README.md"
        if not readme.exists():
            yield Finding("README.md", 1, 1, "RPL-C001", "README.md is missing")
            return
        readme_text = readme.read_text(encoding="utf-8")
        cli_path = root / "src" / "repro" / "cli.py"
        cli_lines = (
            cli_path.read_text(encoding="utf-8").splitlines()
            if cli_path.exists()
            else []
        )
        for flag, paths in sorted(collect_cli_flags(parser).items()):
            if re.search(re.escape(flag) + r"(?![\w-])", readme_text):
                continue
            line = next(
                (
                    no
                    for no, text in enumerate(cli_lines, start=1)
                    if f'"{flag}"' in text
                ),
                1,
            )
            yield Finding(
                "src/repro/cli.py",
                line,
                1,
                "RPL-C001",
                (
                    f"flag {flag} (subcommand: {', '.join(sorted(set(paths)))}) "
                    "is not documented in README.md"
                ),
            )

    # -- C002: cross-references ---------------------------------------

    def _check_cross_references(self, root: Path) -> Iterable[Finding]:
        for doc in iter_doc_files(root):
            if not doc.exists():
                continue
            rel = doc.relative_to(root).as_posix()
            for lineno, line in enumerate(
                doc.read_text(encoding="utf-8").splitlines(), start=1
            ):
                for match in _DOTTED_REF.finditer(line):
                    ref = match.group(0)
                    retired = next(
                        (
                            mod
                            for mod in RETIRED_MODULES
                            if ref == mod or ref.startswith(mod + ".")
                        ),
                        None,
                    )
                    if retired is not None:
                        yield Finding(
                            rel, lineno, match.start() + 1, "RPL-C004",
                            f"`{ref}` references the retired module "
                            f"`{retired}`; cite the repro.engine "
                            "replacement instead",
                        )
                        continue
                    if not resolve_dotted_ref(root, ref):
                        yield Finding(
                            rel, lineno, match.start() + 1, "RPL-C002",
                            f"`{ref}` does not resolve to a "
                            "module or top-level name under src/",
                        )
                for match in _PATH_REF.finditer(line):
                    target = match.group(1)
                    if not (root / target).exists():
                        yield Finding(
                            rel, lineno, match.start() + 1, "RPL-C002",
                            f"path `{target}` does not exist in the repo",
                        )

    # -- C003: invocations parse --------------------------------------

    def _check_invocations(
        self, root: Path, parser: argparse.ArgumentParser
    ) -> Iterable[Finding]:
        checked = 0
        for doc in iter_doc_files(root):
            if not doc.exists():
                continue
            rel = doc.relative_to(root).as_posix()
            for lineno, command in extract_invocations(
                doc.read_text(encoding="utf-8")
            ):
                checked += 1
                error = check_invocation(parser, command)
                if error:
                    yield Finding(
                        rel, lineno, 1, "RPL-C003", f"`{command}` — {error}"
                    )
        if checked == 0:
            yield Finding(
                "README.md", 1, 1, "RPL-C003",
                "no repro-dynamo invocations found in docs — extractor broken?",
            )

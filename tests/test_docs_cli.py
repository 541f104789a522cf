"""Docs stay honest: every documented CLI invocation must parse.

Runs the docs checker family of :mod:`tools.reprolint` (rule RPL-C003,
the check CI runs as ``python -m tools.reprolint --select docs``) over
README.md and docs/*.md, plus unit tests of its extractor so a silent
regression in the checker itself (finding nothing, mis-joining
continuations) also fails loudly.
"""

import subprocess
import sys
from pathlib import Path

from tools.reprolint.docs import (
    check_invocation,
    extract_invocations,
    iter_doc_files,
)

ROOT = Path(__file__).resolve().parent.parent


def test_extractor_joins_continuations_and_cuts_pipes():
    text = "\n".join([
        "prose repro-dynamo outside a fence is ignored",
        "```bash",
        "repro-dynamo census --kinds mesh cordalis \\",
        "  --sizes 3 4 --processes 2",
        "$ repro-dynamo witness list | head -3",
        "python not-a-cli-line.py",
        "```",
    ])
    got = list(extract_invocations(text))
    assert got == [
        (3, "repro-dynamo census --kinds mesh cordalis --sizes 3 4 --processes 2"),
        (5, "repro-dynamo witness list"),
    ]


def test_checker_flags_stale_flags():
    from repro.cli import build_parser

    parser = build_parser()
    assert check_invocation(parser, "repro-dynamo census --db x.jsonl") is None
    assert check_invocation(parser, "repro-dynamo census --no-such-flag") is not None
    assert check_invocation(parser, "repro-dynamo witness verify --all") is None


def test_all_documented_invocations_parse():
    from repro.cli import build_parser

    parser = build_parser()
    checked = 0
    failures = []
    for path in iter_doc_files(ROOT):
        for lineno, command in extract_invocations(path.read_text()):
            checked += 1
            error = check_invocation(parser, command)
            if error:
                failures.append(f"{path.name}:{lineno}: `{command}` — {error}")
    assert not failures, "\n".join(failures)
    # the extractor found a healthy number of commands (README quickstart
    # alone documents a dozen); zero would mean it silently broke
    assert checked >= 10


def test_checker_script_runs_standalone():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "--select", "docs"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

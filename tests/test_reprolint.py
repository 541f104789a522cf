"""reprolint: per-rule fixtures (violating / clean / suppressed) and the
self-check that the shipped tree stays lint-clean.

Each rule family gets three fixture flavours: a snippet that must
produce exactly the expected rule id at the expected location, a clean
variant that must produce nothing, and a suppressed variant proving
``# reprolint: disable=...`` works at both line and file granularity.
The docs family is exercised against a miniature repo tree built on
disk (it reads real files) and against every documented invocation in
README.md and docs/*.md, and the suite ends with the acceptance check:
``src tests benchmarks`` lint clean exactly as CI runs them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint import lint_project, lint_source
from tools.reprolint.__main__ import main as reprolint_main
from tools.reprolint.docs import (
    check_invocation,
    extract_invocations,
    iter_doc_files,
)

ROOT = Path(__file__).resolve().parent.parent

LIB = "src/repro/_fixture.py"


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# determinism family
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_d001_stdlib_random_import(self):
        findings = lint_source("import random\n", path=LIB)
        assert rules_of(findings) == ["RPL-D001"]
        assert (findings[0].line, findings[0].col) == (1, 1)

    def test_d001_from_import(self):
        findings = lint_source("from random import shuffle\n", path=LIB)
        assert rules_of(findings) == ["RPL-D001"]

    def test_d002_global_seed(self):
        src = "import numpy as np\nnp.random.seed(7)\n"
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-D002"]
        assert findings[0].line == 2

    def test_d002_randomstate(self):
        src = "import numpy\nr = numpy.random.RandomState(3)\n"
        assert rules_of(lint_source(src, path=LIB)) == ["RPL-D002"]

    def test_d003_argless_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-D003"]
        assert (findings[0].line, findings[0].col) == (2, 7)

    def test_d003_from_import_alias(self):
        src = "from numpy.random import default_rng\nr = default_rng()\n"
        assert rules_of(lint_source(src, path=LIB)) == ["RPL-D003"]

    def test_d003_clean_with_seed(self):
        src = "import numpy as np\nrng = np.random.default_rng(0xA11A)\n"
        assert lint_source(src, path=LIB) == []

    def test_d004_time_seed(self):
        src = (
            "import time\nimport numpy as np\n"
            "rng = np.random.default_rng(int(time.time()))\n"
        )
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-D004"]
        assert findings[0].line == 3

    def test_d004_urandom_seed_sequence(self):
        src = (
            "import os\nimport numpy as np\n"
            "ss = np.random.SeedSequence(int.from_bytes(os.urandom(8), 'big'))\n"
        )
        assert rules_of(lint_source(src, path=LIB)) == ["RPL-D004"]

    def test_d004_time_stamp_in_run_digest(self):
        """A run id salted with the clock is unreachable after a crash —
        the exact failure the run ledger exists to prevent."""
        src = (
            "import hashlib\nimport time\n"
            "rid = hashlib.sha256(str(time.time()).encode()).hexdigest()\n"
        )
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-D004"]
        assert findings[0].line == 3
        assert "time.time" in findings[0].message

    def test_d004_getpid_in_digest(self):
        src = (
            "import hashlib\nimport os\n"
            "tag = hashlib.md5(str(os.getpid()).encode()).hexdigest()\n"
        )
        assert rules_of(lint_source(src, path=LIB)) == ["RPL-D004"]

    def test_d004_digest_of_canonical_definition_is_clean(self):
        src = (
            "import hashlib\nimport json\n"
            "def run_id(definition):\n"
            "    text = json.dumps(definition, sort_keys=True)\n"
            "    return hashlib.sha256(text.encode()).hexdigest()[:16]\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_d005_set_iteration_in_ledger_path(self):
        src = "keys = [k for k in {('s', 1), ('s', 0)}]\n"
        findings = lint_source(src, path="src/repro/io/ledger.py")
        assert rules_of(findings) == ["RPL-D005"]

    def test_d005_set_iteration_in_serialize_path(self):
        src = "ids = [x for x in {3, 1, 2}]\n"
        findings = lint_source(src, path="src/repro/io/serialize.py")
        assert rules_of(findings) == ["RPL-D005"]

    def test_d005_sorted_set_is_clean(self):
        src = "ids = [x for x in sorted({3, 1, 2})]\n"
        assert lint_source(src, path="src/repro/io/serialize.py") == []

    def test_d005_membership_and_equality_are_clean(self):
        src = "ok = {1, 2} == {2, 1}\nhit = 1 in {1, 2}\n"
        assert lint_source(src, path="src/repro/io/witnessdb.py") == []

    def test_d005_out_of_scope_module_unchecked(self):
        src = "ids = [x for x in {3, 1, 2}]\n"
        assert lint_source(src, path="src/repro/engine/foo.py") == []

    def test_suppressed_line(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # reprolint: disable=RPL-D003\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_suppressed_file_level(self):
        src = (
            "# reprolint: disable=RPL-D003\n"
            "import numpy as np\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng()\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_line_suppression_does_not_leak(self):
        src = (
            "import numpy as np\n"
            "a = np.random.default_rng()  # reprolint: disable=RPL-D003\n"
            "b = np.random.default_rng()\n"
        )
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-D003"]
        assert findings[0].line == 3

    def test_disable_all(self):
        src = (
            "# reprolint: disable=all\n"
            "import random\n"
            "import numpy as np\n"
            "np.random.seed(1)\n"
        )
        assert lint_source(src, path=LIB) == []


# ---------------------------------------------------------------------------
# plan-token family
# ---------------------------------------------------------------------------

_P_VIOLATION = """\
from repro.rules.base import Rule


class CustomRule(Rule):
    def step_batch(self, colors, topo):
        return colors
"""

_P_CLEAN = """\
from repro.rules.base import Rule


class CustomRule(Rule):
    def step_batch(self, colors, topo):
        return colors

    def plan_token(self):
        return ("custom",)
"""


class TestPlanToken:
    def test_p001_override_without_token(self):
        findings = lint_source(_P_VIOLATION, path=LIB)
        assert rules_of(findings) == ["RPL-P001"]
        assert findings[0].line == 4  # the class statement

    def test_p001_transitive_subclass(self):
        src = _P_CLEAN + (
            "\n\nclass GrandChild(CustomRule):\n"
            "    def update_vertex(self, current, neighbors):\n"
            "        return current\n"
        )
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-P001"]
        assert "GrandChild" in findings[0].message

    def test_p001_clean_with_token(self):
        assert lint_source(_P_CLEAN, path=LIB) == []

    def test_p001_non_rule_class_ignored(self):
        src = (
            "class Unrelated:\n"
            "    def step_batch(self, colors, topo):\n"
            "        return colors\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_p001_scoped_to_library(self):
        # test helpers subclass Rule freely; the contract binds src/ only
        assert lint_source(_P_VIOLATION, path="tests/helpers_fixture.py") == []

    def test_p001_suppressed_on_class_line(self):
        src = _P_VIOLATION.replace(
            "class CustomRule(Rule):",
            "class CustomRule(Rule):  # reprolint: disable=RPL-P001",
        )
        assert lint_source(src, path=LIB) == []


# ---------------------------------------------------------------------------
# backend-contract family (the padding-mask guard)
# ---------------------------------------------------------------------------


class TestBackendContract:
    def test_b002_unmasked_gather(self):
        src = (
            "def gather(colors, topo):\n"
            "    return colors[topo.neighbors]\n"
        )
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-B002"]
        assert findings[0].line == 2

    def test_b002_derived_name_tracked(self):
        src = (
            "import numpy as np\n\n\n"
            "def gather(colors, topo):\n"
            "    nb = topo.neighbors\n"
            "    flat = nb.ravel()\n"
            "    return np.take(colors, flat)\n"
        )
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-B002"]
        assert findings[0].line == 7

    def test_b002_mask_guard_clears(self):
        src = (
            "import numpy as np\n\n\n"
            "def gather(colors, topo):\n"
            "    nb = topo.neighbors\n"
            "    mask = nb >= 0\n"
            "    safe = np.where(mask, nb, 0)\n"
            "    return np.where(mask, colors[safe], -1)\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_b002_degrees_slicing_clears(self):
        src = (
            "def gather(colors, topo, v):\n"
            "    return [colors[w] for w in topo.neighbors[v, : topo.degrees[v]]]\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_b002_is_regular_gate_clears(self):
        src = (
            "def gather(colors, topo):\n"
            "    assert topo.is_regular\n"
            "    return colors[:, topo.neighbors]\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_b002_scoped_to_library(self):
        src = (
            "def gather(colors, topo):\n"
            "    return colors[topo.neighbors]\n"
        )
        assert lint_source(src, path="benchmarks/bench_fixture.py") == []

    def test_b002_scans_the_stencil_plans(self):
        """The compiled kernel's module is clean as shipped, and an
        unguarded gather added to it is flagged."""
        path = "src/repro/engine/stencil.py"
        src = (ROOT / path).read_text()
        assert lint_source(src, path=path) == []
        unguarded = src + (
            "\n\ndef _gather(colors: np.ndarray, topo: Topology) -> np.ndarray:\n"
            "    return colors[:, topo.neighbors]\n"
        )
        findings = lint_source(unguarded, path=path)
        assert rules_of(findings) == ["RPL-B002"]

    def test_b002_suppressed(self):
        src = (
            "def gather(colors, topo):\n"
            "    # regular torus: table carries no -1 padding by construction\n"
            "    return colors[topo.neighbors]  # reprolint: disable=RPL-B002\n"
        )
        assert lint_source(src, path=LIB) == []


# ---------------------------------------------------------------------------
# typing family
# ---------------------------------------------------------------------------


class TestTypingGate:
    def test_t001_unannotated_def(self):
        src = "def f(x):\n    return x\n"
        findings = lint_source(src, path="src/repro/engine/_fixture.py")
        assert rules_of(findings) == ["RPL-T001"]
        assert "x" in findings[0].message
        assert "return type" in findings[0].message

    def test_t001_incomplete_def(self):
        src = "def f(x: int):\n    return x\n"
        findings = lint_source(src, path="src/repro/io/_fixture.py")
        assert rules_of(findings) == ["RPL-T001"]
        assert "return type" in findings[0].message

    def test_t001_init_return_optional(self):
        src = (
            "class C:\n"
            "    def __init__(self, x: int):\n"
            "        self.x = x\n"
        )
        assert lint_source(src, path="src/repro/topology/_fixture.py") == []

    def test_t001_clean_annotated(self):
        src = "def f(x: int) -> int:\n    return x\n"
        assert lint_source(src, path="src/repro/engine/_fixture.py") == []

    def test_t001_non_strict_package_unchecked(self):
        src = "def f(x):\n    return x\n"
        assert lint_source(src, path="src/repro/viz/_fixture.py") == []

    def test_t001_rules_and_experiments_are_strict(self):
        src = "def f(x):\n    return x\n"
        for pkg in ("rules", "experiments"):
            findings = lint_source(src, path=f"src/repro/{pkg}/_fixture.py")
            assert rules_of(findings) == ["RPL-T001"]

    def test_t001_suppressed(self):
        src = "def f(x):  # reprolint: disable=RPL-T001\n    return x\n"
        assert lint_source(src, path="src/repro/engine/_fixture.py") == []


# ---------------------------------------------------------------------------
# observability family
# ---------------------------------------------------------------------------


class TestObservability:
    def test_o001_obs_value_in_digest(self):
        src = (
            "import hashlib\n"
            "from repro import obs\n"
            "h = hashlib.blake2b(obs.active_session().path)\n"
        )
        findings = lint_source(src, path=LIB)
        assert rules_of(findings) == ["RPL-O001"]
        assert findings[0].line == 3
        assert "obs.active_session" in findings[0].message

    def test_o001_obs_value_in_payload_sink(self):
        src = (
            "from repro import obs\n"
            "from repro.io.jsonl import canonical_json\n"
            "line = canonical_json({'events': obs.stable_fields({})})\n"
        )
        assert rules_of(lint_source(src, path=LIB)) == ["RPL-O001"]

    def test_o001_obs_value_in_cache_key(self):
        src = (
            "from repro import obs\n"
            "from repro.engine.plans import stepper_cache_key\n"
            "key = stepper_cache_key(obs.count, None)\n"
        )
        assert rules_of(lint_source(src, path=LIB)) == ["RPL-O001"]

    def test_o001_relative_obs_import(self):
        src = (
            "import hashlib\n"
            "from .. import obs\n"
            "digest = hashlib.sha256(obs.token)\n"
        )
        assert rules_of(
            lint_source(src, path="src/repro/io/_fixture.py")
        ) == ["RPL-O001"]

    def test_o001_clean_side_channel_use(self):
        src = (
            "from repro import obs\n"
            "from repro.io.jsonl import canonical_json\n"
            "def f(row: dict) -> str:\n"
            "    obs.count('witnessdb.append')\n"
            "    return canonical_json(row)\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_o001_no_obs_import_unchecked(self):
        src = (
            "import hashlib\n"
            "obs = object()\n"
            "h = hashlib.blake2b(b'x')\n"
        )
        assert lint_source(src, path=LIB) == []

    def test_o001_suppressed(self):
        src = (
            "import hashlib\n"
            "from repro import obs\n"
            "h = hashlib.blake2b(obs.token)  # reprolint: disable=RPL-O001\n"
        )
        assert lint_source(src, path=LIB) == []


# ---------------------------------------------------------------------------
# docs family (needs a real repo tree on disk)
# ---------------------------------------------------------------------------


def _mini_repo(tmp_path: Path, readme: str) -> Path:
    """A miniature repo exposing the real package + a custom README."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    (tmp_path / "src").mkdir()
    # reuse the real package so build_parser imports: symlink src/repro
    (tmp_path / "src" / "repro").symlink_to(ROOT / "src" / "repro")
    (tmp_path / "README.md").write_text(readme)
    return tmp_path


#: README fragment naming every real CLI flag (from the live parser), so
#: C001 stays quiet while C002/C003 fixtures run against the same root
def _all_flags_blurb() -> str:
    from repro.cli import build_parser

    from tools.reprolint.docs import collect_cli_flags

    return " ".join(f"`{flag}`" for flag in collect_cli_flags(build_parser()))


class TestDocsDrift:
    def test_c001_missing_flag_reported(self, tmp_path):
        root = _mini_repo(tmp_path, "# x\n\nno flags documented here\n")
        findings, _ = lint_project(root, ["src"], select=["docs"])
        c001 = [f for f in findings if f.rule == "RPL-C001"]
        assert c001, "expected missing-flag findings"
        assert all(f.path == "src/repro/cli.py" for f in c001)
        assert any("--run-ledger" in f.message for f in c001)

    def test_c002_dangling_module_ref(self, tmp_path):
        readme = f"# x\n\nsee `repro.engine.nonexistent_thing`\n\n{_all_flags_blurb()}\n"
        root = _mini_repo(tmp_path, readme)
        findings, _ = lint_project(root, ["src"], select=["docs"])
        c002 = [f for f in findings if f.rule == "RPL-C002"]
        assert len(c002) == 1
        assert c002[0].path == "README.md"
        assert c002[0].line == 3
        assert "repro.engine.nonexistent_thing" in c002[0].message

    def test_c002_real_refs_resolve(self, tmp_path):
        readme = (
            "# x\n\n`repro.engine.run_batch` and `repro.io.witnessdb` and"
            f" `repro.topology`\n\n{_all_flags_blurb()}\n"
        )
        root = _mini_repo(tmp_path, readme)
        findings, _ = lint_project(root, ["src"], select=["docs"])
        assert [f for f in findings if f.rule == "RPL-C002"] == []

    def test_c003_stale_invocation(self, tmp_path):
        readme = (
            "# x\n\n```bash\nrepro-dynamo census --no-such-flag\n```\n\n"
            f"{_all_flags_blurb()}\n"
        )
        root = _mini_repo(tmp_path, readme)
        findings, _ = lint_project(root, ["src"], select=["docs"])
        c003 = [f for f in findings if f.rule == "RPL-C003"]
        assert len(c003) == 1
        assert c003[0].line == 4
        assert "--no-such-flag" in c003[0].message

    def test_c004_retired_module_reference(self, tmp_path):
        readme = (
            "# x\n\nuse `repro.core.batch.run_batch_smp` here\n\n"
            f"{_all_flags_blurb()}\n"
        )
        root = _mini_repo(tmp_path, readme)
        findings, _ = lint_project(root, ["src"], select=["docs"])
        c004 = [f for f in findings if f.rule == "RPL-C004"]
        assert len(c004) == 1
        assert c004[0].line == 3
        assert "repro.core.batch" in c004[0].message
        # a retired reference must not double-report as a dangling ref
        assert [f for f in findings if f.rule == "RPL-C002"] == []

    def test_c003_valid_invocation_clean(self, tmp_path):
        readme = (
            "# x\n\n```bash\nrepro-dynamo census --sizes 3 4 \\\n"
            "  --trials 100 | head\n```\n\n"
            f"{_all_flags_blurb()}\n"
        )
        root = _mini_repo(tmp_path, readme)
        findings, _ = lint_project(root, ["src"], select=["docs"])
        assert [f for f in findings if f.rule == "RPL-C003"] == []

    def test_extractor_joins_continuations_and_cuts_pipes(self):
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

    def test_checker_flags_stale_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert check_invocation(parser, "repro-dynamo census --db x.jsonl") is None
        stale = "repro-dynamo census --no-such-flag"
        assert check_invocation(parser, stale) is not None
        assert check_invocation(parser, "repro-dynamo witness verify --all") is None

    def test_all_documented_invocations_parse(self):
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
        # the extractor found a healthy number of commands (README
        # quickstart alone documents a dozen); zero would mean it
        # silently broke
        assert checked >= 10


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_zero_and_summary_on_clean_tree(self, capsys):
        rc = reprolint_main(["--root", str(ROOT), "src"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "reprolint: clean" in captured.err

    def test_exit_nonzero_with_findings(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro"
        bad.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (bad / "mod.py").write_text("import random\n")
        rc = reprolint_main(
            ["--root", str(tmp_path), "src", "--select", "determinism"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "src/repro/mod.py:1:1 RPL-D001" in captured.out

    def test_json_report(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro"
        bad.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (bad / "mod.py").write_text("import random\n")
        rc = reprolint_main(
            ["--root", str(tmp_path), "src", "--select", "determinism", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["files_scanned"] == 1
        assert [f["rule"] for f in report["findings"]] == ["RPL-D001"]
        assert report["findings"][0]["path"] == "src/repro/mod.py"

    def test_list_rules(self, capsys):
        rc = reprolint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule in (
            "RPL-D001", "RPL-D005", "RPL-P001", "RPL-B002",
            "RPL-C001", "RPL-C003", "RPL-C004", "RPL-T001", "RPL-O001",
        ):
            assert rule in out

    def test_unknown_family_rejected(self, capsys):
        rc = reprolint_main(["--select", "nonsense"])
        assert rc == 2

    def test_syntax_error_reported_not_crashing(self, tmp_path, capsys):
        bad = tmp_path / "src"
        bad.mkdir()
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (bad / "broken.py").write_text("def f(:\n")
        rc = reprolint_main(["--root", str(tmp_path), "src"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "RPL-E001" in captured.out


# ---------------------------------------------------------------------------
# acceptance: the shipped tree is clean, exactly as CI invokes it
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_shipped_tree_is_reprolint_clean(self):
        findings, scanned = lint_project(ROOT, ["src", "tests", "benchmarks"])
        assert findings == [], "\n".join(f.render() for f in findings)
        assert scanned > 100

    @pytest.mark.slow
    def test_module_entry_point_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "src", "tests", "benchmarks"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: clean" in proc.stderr

"""reprolint — repo-specific static analysis for the determinism and
kernel contracts this reproduction's headline claims rest on.

The engine promises bitwise-identical results at any process count,
on the compiled kernel or the rules' own, with a cold or a warm stepper
registry.  Those
promises are upheld by hand-maintained conventions (per-shard
``SeedSequence`` derivation, ``plan_token()`` MRO authority, the ``-1``
padding-mask contract, docs that match the real CLI).  ``reprolint`` encodes each convention as an
AST-level rule so a violation fails lint instead of waiting for a
parity test to happen to cover it.

Pure stdlib (``ast`` + ``tokenize``); no third-party dependencies.
Run ``python -m tools.reprolint --list-rules`` for the rule catalog,
or see the "static contract layer" section of docs/ARCHITECTURE.md.
"""

from .core import (  # noqa: F401  (public API re-exports)
    CHECKERS,
    Checker,
    Finding,
    Module,
    Project,
    all_rules,
    lint_project,
    lint_source,
    register_checker,
)

# Importing the checker modules registers them with the registry.
from . import determinism  # noqa: F401,E402
from . import plan_token  # noqa: F401,E402
from . import backend_contract  # noqa: F401,E402
from . import typing_gate  # noqa: F401,E402
from . import docs  # noqa: F401,E402
from . import observability  # noqa: F401,E402

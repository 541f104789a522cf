"""repro — Dynamic Monopolies in Colored Tori.

A reproduction of S. Brunetti, E. Lodi, W. Quattrociocchi, *Dynamic
Monopolies in Colored Tori* (IPPS 2011, arXiv:1101.5915): multi-colored
dynamo simulation under the SMP-Protocol on toroidal meshes, tori cordalis
and tori serpentinus, with the paper's explicit minimum-dynamo
constructions, size bounds, round-count formulas, structural certificates
(k-blocks / non-k-blocks), exhaustive lower-bound searches, the bi-colored
majority baselines of Flocchini et al., the linear-threshold rule and
irreversible (bootstrap) bridge of the Target Set Selection framing, and
the paper's future-work extensions (scale-free graphs, asynchronous
schedules).

Quickstart
----------
>>> from repro import theorem2_mesh_dynamo, verify_construction
>>> con = theorem2_mesh_dynamo(9, 9)
>>> report = verify_construction(con)
>>> report.is_monotone_dynamo, con.seed_size
(True, 16)

See ``examples/`` for runnable scenarios and ``docs/ARCHITECTURE.md``
(its module map) for the full system inventory.
"""

from .core import (
    Construction,
    DynamoReport,
    build_minimum_dynamo,
    exhaustive_dynamo_search,
    exhaustive_min_dynamo_size,
    full_cross_mesh_dynamo,
    is_monotone_dynamo,
    lower_bound,
    proposition3_column_dynamo,
    random_dynamo_search,
    theorem1_mesh_lower_bound,
    theorem2_mesh_dynamo,
    theorem3_cordalis_lower_bound,
    theorem4_cordalis_dynamo,
    theorem5_serpentinus_lower_bound,
    theorem6_serpentinus_dynamo,
    theorem7_mesh_rounds,
    theorem8_row_rounds,
    verify_construction,
    verify_dynamo,
)
from .engine import (
    BatchRunResult,
    RunResult,
    run_asynchronous,
    run_batch,
    run_synchronous,
)
from .rules import (
    GeneralizedPluralityRule,
    LinearThresholdRule,
    ReverseSimpleMajority,
    ReverseStrongMajority,
    Rule,
    SMPRule,
    make_rule,
)
from .structures import (
    bounding_box,
    has_k_block,
    has_non_k_block,
    k_blocks,
    non_k_blocks,
)
from .topology import (
    GraphTopology,
    ToroidalMesh,
    TorusCordalis,
    TorusSerpentinus,
    make_torus,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # topologies
    "ToroidalMesh",
    "TorusCordalis",
    "TorusSerpentinus",
    "GraphTopology",
    "make_torus",
    # rules
    "Rule",
    "SMPRule",
    "ReverseSimpleMajority",
    "ReverseStrongMajority",
    "GeneralizedPluralityRule",
    "LinearThresholdRule",
    "make_rule",
    # engine
    "RunResult",
    "BatchRunResult",
    "run_synchronous",
    "run_batch",
    "run_asynchronous",
    # structures
    "k_blocks",
    "non_k_blocks",
    "has_k_block",
    "has_non_k_block",
    "bounding_box",
    # core
    "Construction",
    "DynamoReport",
    "build_minimum_dynamo",
    "theorem2_mesh_dynamo",
    "theorem4_cordalis_dynamo",
    "theorem6_serpentinus_dynamo",
    "proposition3_column_dynamo",
    "full_cross_mesh_dynamo",
    "verify_dynamo",
    "verify_construction",
    "is_monotone_dynamo",
    "lower_bound",
    "theorem1_mesh_lower_bound",
    "theorem3_cordalis_lower_bound",
    "theorem5_serpentinus_lower_bound",
    "theorem7_mesh_rounds",
    "theorem8_row_rounds",
    "exhaustive_dynamo_search",
    "exhaustive_min_dynamo_size",
    "random_dynamo_search",
]

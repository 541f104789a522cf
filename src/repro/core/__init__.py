"""Core contribution layer: constructions, bounds, verification, search."""

from .bounds import (
    lemma3_block_min_size,
    lower_bound,
    proposition3_min_colors,
    theorem1_mesh_lower_bound,
    theorem3_cordalis_lower_bound,
    theorem5_serpentinus_lower_bound,
    theorem7_mesh_rounds,
    theorem8_row_rounds,
)
from .complement import find_dynamo_complement, minimum_palette_complement
from .floor import (
    CACHED_FLOOR_WITNESSES,
    floor_dynamo,
    floor_size,
    verify_floor_witnesses,
)
from .irreversible import (
    bootstrap_closure,
    bootstrap_percolates,
    min_bootstrap_percolating_size,
    run_irreversible,
)
from .diagonal import (
    CACHED_MESH_DIAGONAL_WITNESSES,
    diagonal_dynamo,
    diagonal_seed,
    verify_cached_witnesses,
)
from .constructions import (
    Construction,
    build_minimum_dynamo,
    full_cross_mesh_dynamo,
    proposition3_column_dynamo,
    theorem2_mesh_dynamo,
    theorem4_cordalis_dynamo,
    theorem6_serpentinus_dynamo,
)
from .phi import non_k_core_mask, phi_collapse, white_blocks_mask
from .search import (
    SearchOutcome,
    count_configs,
    exhaustive_dynamo_search,
    exhaustive_min_dynamo_size,
    random_dynamo_search,
)
from .sequences import (
    cyclic_window_sequence,
    find_cyclic_window_sequence,
    find_mesh_row_sequence,
    mesh_row_sequence,
    windows_ok_cyclic,
    windows_ok_path,
)
from .verify import DynamoReport, is_monotone_dynamo, verify_construction, verify_dynamo

__all__ = [
    "Construction",
    "build_minimum_dynamo",
    "theorem2_mesh_dynamo",
    "theorem4_cordalis_dynamo",
    "theorem6_serpentinus_dynamo",
    "proposition3_column_dynamo",
    "full_cross_mesh_dynamo",
    "find_dynamo_complement",
    "minimum_palette_complement",
    "run_irreversible",
    "bootstrap_closure",
    "bootstrap_percolates",
    "min_bootstrap_percolating_size",
    "CACHED_FLOOR_WITNESSES",
    "floor_dynamo",
    "floor_size",
    "verify_floor_witnesses",
    "diagonal_dynamo",
    "diagonal_seed",
    "CACHED_MESH_DIAGONAL_WITNESSES",
    "verify_cached_witnesses",
    "lower_bound",
    "theorem1_mesh_lower_bound",
    "theorem3_cordalis_lower_bound",
    "theorem5_serpentinus_lower_bound",
    "theorem7_mesh_rounds",
    "theorem8_row_rounds",
    "lemma3_block_min_size",
    "proposition3_min_colors",
    "phi_collapse",
    "white_blocks_mask",
    "non_k_core_mask",
    "DynamoReport",
    "verify_dynamo",
    "verify_construction",
    "is_monotone_dynamo",
    "SearchOutcome",
    "exhaustive_dynamo_search",
    "exhaustive_min_dynamo_size",
    "random_dynamo_search",
    "count_configs",
    "cyclic_window_sequence",
    "find_cyclic_window_sequence",
    "mesh_row_sequence",
    "find_mesh_row_sequence",
    "windows_ok_cyclic",
    "windows_ok_path",
]

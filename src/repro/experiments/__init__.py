"""Experiment drivers reproducing the paper's figures and theorems."""

from .figures import (
    FIG5_EXPECTED,
    FIG6_EXPECTED,
    FigureResult,
    figure1_minimum_dynamo,
    figure2_theorem2_coloring,
    figure3_bad_complement,
    figure4_frozen_configuration,
    figure5_mesh_time_matrix,
    figure6_cordalis_time_matrix,
    find_frozen_completion,
)
from .census import CensusRow, below_bound_census
from .sweeps import (
    SweepPoint,
    convergence_sweep,
    rect_points,
    square_points,
    sweep_rounds,
)

__all__ = [
    "FigureResult",
    "figure1_minimum_dynamo",
    "figure2_theorem2_coloring",
    "figure3_bad_complement",
    "figure4_frozen_configuration",
    "figure5_mesh_time_matrix",
    "figure6_cordalis_time_matrix",
    "find_frozen_completion",
    "FIG5_EXPECTED",
    "FIG6_EXPECTED",
    "sweep_rounds",
    "convergence_sweep",
    "CensusRow",
    "below_bound_census",
    "square_points",
    "rect_points",
    "SweepPoint",
]

"""E14 (companion model, refs [4][5]): ordered increments on the torus.

No numbers exist in the reproduced paper (it only points at the companion
studies); the bench records the qualitative laws: sandwiched rows climb
one color per round under the increment rule, and random ordered
configurations converge within the color-sum potential budget.
"""

import numpy as np
import pytest

from repro.engine import run_synchronous
from repro.rules import OrderedIncrementRule
from repro.topology import ToroidalMesh

from bench_helpers import once


@pytest.mark.parametrize("num_colors", [3, 5, 9])
def test_ordered_climb_time_scales_with_palette(benchmark, num_colors):
    """Sandwiched rows take exactly num_colors - 1 rounds to saturate."""
    topo = ToroidalMesh(5, 6)
    colors = np.zeros(30, dtype=np.int32)
    g = colors.reshape(5, 6)
    g[0, :] = num_colors - 1
    g[2, :] = num_colors - 1
    g[4, :] = num_colors - 1
    rule = OrderedIncrementRule(num_colors)

    def run():
        return run_synchronous(topo, colors, rule, max_rounds=rule.max_rounds(topo))

    res = benchmark(run)
    assert res.converged and res.monochromatic
    assert res.rounds == num_colors - 1
    benchmark.extra_info.update(num_colors=num_colors, rounds=res.rounds)


def test_ordered_random_convergence(benchmark, rng):
    """Random ordered configurations always converge within the potential
    budget (the color-sum monovariant)."""
    topo = ToroidalMesh(12, 12)
    rule = OrderedIncrementRule(6)
    configs = rng.integers(0, 6, size=(20, topo.num_vertices)).astype(np.int32)

    def run():
        rounds = []
        for c in configs:
            res = run_synchronous(topo, c, rule, max_rounds=rule.max_rounds(topo))
            assert res.converged
            rounds.append(res.rounds)
        return max(rounds)

    worst = once(benchmark, run)
    assert worst <= rule.max_rounds(topo)
    benchmark.extra_info.update(worst_rounds=worst, budget=rule.max_rounds(topo))

"""Ablation studies: which ingredients of the constructions matter.

Ablation benches over the design choices.  Three axes:

* **tie rule** (:func:`tie_rule_ablation`) — run the same initial
  configuration under SMP, Prefer-Black, Prefer-Current, and strong
  majority.  Shows the paper's tie-freeze choice is load-bearing: the
  constructions are dynamos under SMP, explode trivially under PB (any
  black pair wins ties), and stall under strong majority.
* **seed shape** (:func:`seed_shape_ablation`) — equal-budget seed
  placements (theorem shape, diagonal, random scatter, solid block) with
  the best complement each admits, measuring final takeover share.
* **complement quality** (:func:`complement_ablation`) — theorem-valid
  complement vs random complements vs monochromatic complement for the
  same seed, measuring dynamo success probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.constructions import build_minimum_dynamo
from ..topology.base import Topology
from ..engine.runner import run_synchronous
from ..rules.base import Rule
from ..rules.majority import ReverseSimpleMajority, ReverseStrongMajority
from ..rules.smp import SMPRule

__all__ = [
    "AblationResult",
    "tie_rule_ablation",
    "seed_shape_ablation",
    "complement_ablation",
]


@dataclass
class AblationResult:
    """Outcome of one ablation arm."""

    arm: str
    converged: bool
    monochromatic: bool
    k_fraction: float
    rounds: int
    monotone: Optional[bool]


def _run_arm(
    name: str, con_topo: Topology, colors: np.ndarray, rule: Rule, k: int
) -> AblationResult:
    res = run_synchronous(con_topo, colors, rule, target_color=k)
    return AblationResult(
        arm=name,
        converged=res.converged,
        monochromatic=res.monochromatic,
        k_fraction=float((res.final == k).mean()),
        rounds=res.rounds,
        monotone=res.monotone,
    )


def tie_rule_ablation(kind: str = "mesh", m: int = 9, n: int = 9) -> List[AblationResult]:
    """The construction under each rule (bi-color rules get the phi
    collapse of the configuration, matching their domain)."""
    from ..core.phi import phi_collapse
    from ..rules.majority import BLACK

    con = build_minimum_dynamo(kind, m, n)
    out = [
        _run_arm("smp", con.topo, con.colors, SMPRule(), con.k),
        _run_arm(
            "strong-majority", con.topo, con.colors, ReverseStrongMajority(), con.k
        ),
    ]
    bi = phi_collapse(con.colors, con.k)
    out.append(
        _run_arm(
            "prefer-black(phi)",
            con.topo,
            bi,
            ReverseSimpleMajority("prefer-black"),
            BLACK,
        )
    )
    out.append(
        _run_arm(
            "prefer-current(phi)",
            con.topo,
            bi,
            ReverseSimpleMajority("prefer-current"),
            BLACK,
        )
    )
    return out


def seed_shape_ablation(
    m: int = 6, n: int = 6, rng: Optional[np.random.Generator] = None
) -> Dict[str, AblationResult]:
    """Equal-budget shapes on the mesh, each with its best-known complement.

    Theorem shape uses the theorem complement; diagonal uses the searched
    witness where cached; scatter and block get the theorem complement's
    color distribution (they have no crafted complement — that is the
    point: shape and complement must cooperate).
    """
    rng = rng if rng is not None else np.random.default_rng(0xA11A)
    con = build_minimum_dynamo("mesh", m, n)
    budget = con.seed_size
    out: Dict[str, AblationResult] = {}
    out["theorem"] = _run_arm("theorem", con.topo, con.colors, SMPRule(), con.k)

    from ..core.diagonal import CACHED_MESH_DIAGONAL_WITNESSES

    if m == n and m in CACHED_MESH_DIAGONAL_WITNESSES:
        diag_colors = np.asarray(
            CACHED_MESH_DIAGONAL_WITNESSES[m], dtype=np.int32
        ).reshape(-1)
        out["diagonal"] = _run_arm("diagonal", con.topo, diag_colors, SMPRule(), 0)

    for name, seed_ids in (
        ("scatter", rng.choice(con.topo.num_vertices, size=budget, replace=False)),
        (
            "block",
            np.asarray(
                [
                    con.topo.vertex_index(i, j)
                    for i in range(int(np.ceil(budget / 3)))
                    for j in range(3)
                ][:budget]
            ),
        ),
    ):
        colors = con.colors.copy()
        colors[con.seed] = np.asarray(
            [c for c in con.palette if c != con.k], dtype=np.int32
        )[rng.integers(0, con.num_colors - 1, size=budget)]
        colors[seed_ids] = con.k
        out[name] = _run_arm(name, con.topo, colors, SMPRule(), con.k)
    return out


def complement_ablation(
    kind: str = "cordalis",
    m: int = 6,
    n: int = 6,
    trials: int = 50,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, float]:
    """Dynamo success probability by complement type for the theorem seed.

    Returns ``{"theorem": 1.0, "random": p, "monochromatic": 0.0}`` style
    summary (fractions of runs reaching the all-k configuration).
    """
    rng = rng if rng is not None else np.random.default_rng(0xC0DE)
    con = build_minimum_dynamo(kind, m, n)
    others = np.asarray([c for c in con.palette if c != con.k], dtype=np.int32)
    complement = np.flatnonzero(~con.seed)

    def success(colors: np.ndarray) -> bool:
        res = run_synchronous(
            con.topo, colors, SMPRule(), target_color=con.k, track_changes=False
        )
        return res.is_dynamo_run(con.k)

    random_hits = 0
    for _ in range(trials):
        colors = con.colors.copy()
        colors[complement] = others[rng.integers(0, others.size, complement.size)]
        random_hits += success(colors)
    mono = con.colors.copy()
    mono[complement] = others[0]
    return {
        "theorem": 1.0 if success(con.colors) else 0.0,
        "random": random_hits / trials,
        "monochromatic": 1.0 if success(mono) else 0.0,
    }

#!/usr/bin/env python
"""The reproduction's own findings: below-bound dynamos, live.

This reproduction did not just re-derive the paper — machine checking
overturned its lower bounds.  This example walks through the evidence:

1. the explicit 3x3 counterexample to Theorem 1 (size 3 < 4);
2. the diagonal family: size-n, three-color monotone dynamos on n x n
   meshes (n = 3..6);
3. the bootstrap floor: why nothing below n - 1 can ever work, and the
   cached witnesses showing n - 1 is achieved;
4. the full claim audit (the executable-theory verdict table).

Run:  python examples/below_bound_findings.py
"""

import numpy as np

from repro import SMPRule, ToroidalMesh, run_synchronous
from repro.core import (
    CACHED_MESH_DIAGONAL_WITNESSES,
    bootstrap_percolates,
    diagonal_dynamo,
    floor_dynamo,
    lower_bound,
    min_bootstrap_percolating_size,
)
from repro.theory import full_report, render_report
from repro.viz import render_grid, render_time_matrix


def the_counterexample() -> None:
    print("=== 1. the 3x3 counterexample to Theorem 1 ===")
    topo = ToroidalMesh(3, 3)
    colors = np.asarray(CACHED_MESH_DIAGONAL_WITNESSES[3], dtype=np.int32).reshape(-1)
    res = run_synchronous(topo, colors, SMPRule(), target_color=0, record=True)
    print(render_grid(topo, colors, 0, seed=colors == 0))
    print(f"-> {res.summary()}")
    print(f"   size 3 seed, paper bound {lower_bound('mesh', 3, 3)}")
    print("   each diagonal vertex is protected by a 2-2 tie of the two")
    print("   complement colors; the staircase cells see two k-neighbors")
    print("   and convert — no k-block anywhere (Lemma 2 is the gap).\n")


def the_diagonal_family() -> None:
    print("=== 2. diagonal dynamos: size n, |C| = 3, for n = 3..6 ===")
    header = f"{'n':>3} {'size':>5} {'bound':>6} {'rounds':>7}"
    print(f"{header}   color-0 vertices per round")
    for n in sorted(CACHED_MESH_DIAGONAL_WITNESSES):
        con = diagonal_dynamo(n)
        res = run_synchronous(
            con.topo, con.colors, SMPRule(), target_color=0, record=True
        )
        curve = " ".join(str(int((state == 0).sum())) for state in res.trajectory)
        print(f"{n:>3} {con.seed_size:>5} {con.size_lower_bound:>6} "
              f"{res.rounds:>7}   {curve}")
    print()


def the_floor() -> None:
    print("=== 3. the bootstrap floor: the true minimum is n - 1 ===")
    for n in (3, 4, 5):
        floor, _ = min_bootstrap_percolating_size(ToroidalMesh(n, n), max_size=n)
        con = floor_dynamo(n)
        res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=0)
        ok = res.is_dynamo_run(0)
        print(f"n={n}: bootstrap floor {floor}; SMP dynamo of size "
              f"{con.seed_size}: {'achieved' if ok else 'FAILED'} "
              f"(paper bound {2 * n - 2})")
    print()
    print("witness for n = 5 (seed uppercase):")
    con = floor_dynamo(5)
    print(render_grid(con.topo, con.colors, 0, seed=con.seed))
    res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=0)
    print("adoption rounds:")
    print(render_time_matrix(res.recoloring_matrix(con.topo)))
    # soundness: nothing smaller can even bootstrap-percolate
    from itertools import combinations

    topo = ToroidalMesh(4, 4)
    assert not any(
        bootstrap_percolates(topo, np.asarray(s))
        for s in combinations(range(16), 2)
    )
    print("\n(no 2-vertex seed even bootstrap-percolates a 4x4 — the floor")
    print(" is a sound lower bound, and it is what the paper's m + n - 2")
    print(" should have been)\n")


def the_audit() -> None:
    print("=== 4. the full claim audit ===")
    print(render_report(full_report()))


def main() -> None:
    the_counterexample()
    the_diagonal_family()
    the_floor()
    the_audit()


if __name__ == "__main__":
    main()

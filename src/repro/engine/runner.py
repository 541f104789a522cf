"""Synchronous simulation driver.

The paper's model (Section III-D): the system is synchronous, every vertex
applies the rule simultaneously each round, and one round costs one time
unit.  :func:`run_synchronous` executes that loop with:

* double-buffered color vectors (two preallocated arrays swapped each round
  — no per-round allocation; the rule writes into ``out``),
* fixed-point detection (state equality) and limit-cycle detection (state
  hashing — synchronous deterministic dynamics are eventually periodic, and
  non-dynamo configurations can oscillate, e.g. under Prefer-Black),
* per-vertex first/last change tracking for the Figure 5/6 matrices,
* monotonicity monitoring w.r.t. a target color (Definition 3),
* an optional absorbing color (the irreversible variant).

Each round runs the same compiled kernel as the batched engine
(:func:`~repro.engine.stencil.compile_stepper` on a ``(1, N)`` view,
served by the stepper registry: the very plan batched calls on the same
``(rule, topology)`` use) unless the rule overrides its scalar ``step``.

``max_rounds`` defaults to a generous bound derived from Theorem 8 — the
slowest construction in the paper needs ``O(m * n)`` rounds, so we cap at
``4 * m * n + 64`` table slots for grid topologies and ``4 * N + 64``
otherwise; callers can always override.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from ..rules.base import Rule, as_color_array
from ..topology.base import Topology
from .plans import stepper_for
from .result import RunResult

__all__ = [
    "run_synchronous",
    "default_round_cap",
    "validate_round_cap",
]


def default_round_cap(topo: Topology) -> int:
    """Round budget comfortably above the paper's worst-case bound."""
    return 4 * topo.num_vertices + 64


def validate_round_cap(
    max_rounds: Optional[int], topo: Topology, *, flag: str = "max_rounds"
) -> int:
    """Resolve and validate a round budget in the one place every driver
    shares.

    ``None`` means :func:`default_round_cap`; ``0`` is a legal budget
    (the run reports its initial state); negatives and non-integers
    raise :class:`ValueError` with a message naming ``flag``.  The
    scalar runner, the batched engine, and both asynchronous drivers
    (``flag="max_sweeps"``) route their caps through here, so "how many
    rounds is a run allowed" has exactly one answer and one failure mode.
    """
    if max_rounds is None:
        return default_round_cap(topo)
    try:
        cap = int(max_rounds)
    except (TypeError, ValueError):
        raise ValueError(
            f"{flag} must be an integer >= 0 or None, got {max_rounds!r}"
        ) from None
    if cap != max_rounds or cap < 0:
        raise ValueError(f"{flag} must be >= 0, got {max_rounds!r}")
    return cap


def _state_digest(colors: np.ndarray) -> bytes:
    """Cheap collision-resistant digest of a state for cycle detection."""
    return hashlib.blake2b(colors.tobytes(), digest_size=16).digest()


def run_synchronous(
    topo: Topology,
    initial: Sequence[int] | np.ndarray,
    rule: Rule,
    *,
    max_rounds: Optional[int] = None,
    target_color: Optional[int] = None,
    irreversible_color: Optional[int] = None,
    track_changes: bool = True,
    detect_cycles: bool = True,
    record: bool = False,
) -> RunResult:
    """Run the synchronous dynamics to a fixed point, cycle, or round cap.

    Parameters
    ----------
    topo, initial, rule:
        The interaction topology, the initial coloring (length
        ``topo.num_vertices``), and the recoloring rule.
    max_rounds:
        Hard cap on executed rounds (default :func:`default_round_cap`).
    target_color:
        When given, the run also reports whether it was *monotone* for that
        color: the set of ``target_color``-colored vertices at round ``t``
        is a subset of the one at ``t + 1`` (Definition 3).
    irreversible_color:
        When given, vertices that ever hold this color keep it forever
        (the *irreversible* dynamo variant of Chang-Lyuu, ref [9] of the
        paper): after each round the previous holders are rewritten back.
        Such runs are monotone for that color by construction.
    track_changes:
        Record per-vertex first/last change rounds (Figures 5/6).
    detect_cycles:
        Hash every state and stop as soon as one repeats, reporting the
        cycle length.  Costs one blake2b per round; disable for throughput
        benchmarks.
    record:
        Keep a copy of every state in ``result.trajectory`` (index = round).

    Each round runs the compiled stepper of
    :func:`~repro.engine.batch.run_batch` on a ``(1, N)`` view, served
    from the stepper registry so repeated scalar runs skip
    recompilation — but only while the rule's scalar
    :meth:`~repro.rules.base.Rule.step` is the stock batched delegation:
    a rule overriding ``step`` keeps its own kernel, mirroring how
    inherited kernel specs are withheld from the compiler.
    """
    colors = as_color_array(initial, topo.num_vertices).copy()
    max_rounds = validate_round_cap(max_rounds, topo)
    stepper = None
    if type(rule).step is Rule.step:
        stepper = stepper_for(rule, topo, 1)

    n = topo.num_vertices
    last_change = np.zeros(n, dtype=np.int32) if track_changes else None
    first_change = np.zeros(n, dtype=np.int32) if track_changes else None
    monotone: Optional[bool] = None
    if target_color is not None:
        monotone = True

    trajectory = []
    if record:
        trajectory.append(colors.copy())

    seen: dict[bytes, int] = {}
    if detect_cycles:
        seen[_state_digest(colors)] = 0

    buf = np.empty_like(colors)
    converged = False
    cycle_length: Optional[int] = None
    fixed_point_round: Optional[int] = None
    rounds = 0

    for t in range(1, max_rounds + 1):
        if stepper is None:
            rule.step(colors, topo, out=buf)
        else:
            # the stepper may return internal scratch; copy into the
            # double buffer before the swap
            np.copyto(buf, stepper(colors[None, :])[0])
        if irreversible_color is not None:
            np.copyto(buf, irreversible_color, where=colors == irreversible_color)
        changed = buf != colors
        rounds = t
        if not changed.any():
            converged = True
            cycle_length = 1
            fixed_point_round = t - 1
            rounds = t - 1  # the state did not change; last effective round
            break
        if track_changes:
            last_change[changed] = t
            np.copyto(
                first_change, t, where=changed & (first_change == 0)
            )
        if monotone is True:
            # a target-colored vertex abandoning the color breaks monotonicity
            if np.any(changed & (colors == target_color)):
                monotone = False
        colors, buf = buf, colors  # swap double buffers
        if record:
            trajectory.append(colors.copy())
        if detect_cycles:
            digest = _state_digest(colors)
            if digest in seen:
                cycle_length = t - seen[digest]
                break
            seen[digest] = t

    return RunResult(
        final=colors.copy(),
        rounds=rounds,
        converged=converged,
        cycle_length=cycle_length,
        fixed_point_round=fixed_point_round,
        last_change=last_change,
        first_change=first_change,
        monotone=monotone,
        target_color=target_color,
        trajectory=trajectory,
    )

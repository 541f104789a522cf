"""The bit-sliced SMP path of :func:`run_batch` (64 replicas per word).

``run_batch`` steps SMP on packed ``uint64`` words exactly when the
registry serves the compiled SMP plan, which it also serves the
ceil(d/2) plurality rule on an unpadded degree-4 table (the same rule
there).  These tests pin:

* **selection** — those conditions and no others, judged on the raw
  cached stepper (a ``debug`` timing shim does not switch paths);
* **the packed edge cases**, for SMP and for plurality, against one
  :func:`run_batch` of the rules' own kernels on the int32 loop, every
  :data:`RESULT_FIELDS` entry, with a few rows of each case also
  replayed through per-row :func:`run_synchronous` with
  ``detect_cycles=False``: batch widths around the 64-row word, colours
  needing 1, 3, 8 and 9 bit planes, targets inside, outside and above
  the planes' range, small caps, and words that hold fixed-point and
  Brent-retired rows together;
* **validation** — a packed plurality run raises the rule's own palette
  error, checked once on the batch it packs;
* **telemetry** — a ``debug`` run counts the same kernel steps and
  shadow retirements as the rules' own kernel on the int32 loop.
"""

import networkx as nx
import numpy as np
import pytest

from repro import obs
from repro.engine import batch as batch_mod
from repro.engine import clear_plan_cache, run_batch
from repro.engine.plans import raw_stepper_for
from repro.engine.stencil import packed_smp
from repro.obs.report import load_stream, summarize
from repro.rules import GeneralizedPluralityRule, ReverseStrongMajority, SMPRule
from repro.rules.plurality import strong_threshold
from repro.topology import GraphTopology, ToroidalMesh

from helpers import (
    TORUS_KINDS,
    assert_matches_oracle,
    assert_matches_own_kernel,
    per_row_oracle,
    rule_kernel_only,
)

#: colour sets needing 1, 3, 8 and 9 bit planes
COLOR_SETS = {
    "1-plane": [0, 1],
    "3-planes": [0, 1, 2, 3, 4],
    "8-planes": [0, 255],
    "9-planes": [3, 256],
}

#: batch widths around the 64-row word
WIDTHS = (1, 63, 64, 65, 130)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _packed_rules(palette_size):
    """The rules the packed path serves, on colours below ``palette_size``."""
    return (SMPRule(), GeneralizedPluralityRule(palette_size))


def _spot_rows(width):
    """The rows of a case also replayed one by one: both ends and the
    middle."""
    ends = (0, 1, width // 2, width - 2, width - 1)
    return sorted({r for r in ends if 0 <= r < width})


def _assert_packed_run(topo, batch, rule, context, **kw):
    """``run_batch`` (packed) equals one ``run_batch`` of the rule's own
    kernel on the int32 loop, every field, and its spot rows equal
    per-row :func:`run_synchronous`."""
    res = run_batch(topo, batch, rule, **kw)
    assert_matches_own_kernel("plain", topo, batch, rule, res, context, **kw)
    rows = _spot_rows(len(batch))
    oracle = per_row_oracle(topo, batch[rows], rule, **kw)
    assert_matches_oracle(res, oracle, context, rows=rows)
    return res


class _PackedTaken(Exception):
    pass


def _takes_packed(monkeypatch, call):
    """Whether ``call()`` reaches the packed loop."""

    def trap(*args, **kwargs):
        raise _PackedTaken

    with monkeypatch.context() as patch:
        patch.setattr(batch_mod, "_run_packed", trap)
        try:
            call()
        except _PackedTaken:
            return True
    return False


def _padded_graph():
    """A degree-4 table with two padding slots whose plurality thresholds
    are still all 2: a 4-regular circulant graph less one edge."""
    graph = nx.circulant_graph(10, [1, 2])
    graph.remove_edge(0, 1)
    topo = GraphTopology(graph)
    assert topo.neighbors.shape[1] == 4 and (topo.neighbors < 0).sum() == 2
    assert (GeneralizedPluralityRule(4).kernel_spec(topo).thresholds == 2).all()
    return topo


def test_packed_path_selection(tmp_path, rng, monkeypatch):
    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(70, 16)).astype(np.int32)

    def run(rule=None, on=topo):
        return lambda: run_batch(
            on, batch[:, : on.num_vertices], rule or SMPRule(), max_rounds=20,
            target_color=0,
        )

    assert packed_smp(raw_stepper_for(SMPRule(), topo, 70)) is not None
    assert _takes_packed(monkeypatch, run())
    assert not _takes_packed(monkeypatch, run(ReverseStrongMajority()))
    # the ceil(d/2) plurality rule is SMP on every degree-4 torus...
    for kind in sorted(TORUS_KINDS):
        torus = TORUS_KINDS[kind](4, 4)
        for k in (4, 5, 7):
            rule = GeneralizedPluralityRule(k)
            assert packed_smp(raw_stepper_for(rule, torus, 70)) is not None
            assert _takes_packed(monkeypatch, run(rule, torus)), (kind, k)
    # ...and no other plurality spec is: thresholds of 3, a fractional
    # threshold (no spec), thresholds that read as 2 if truncated to a
    # byte, or padding slots in the table
    for rule in (
        GeneralizedPluralityRule(4, strong_threshold),
        GeneralizedPluralityRule(4, lambda d: d / 2 + 0.5),
        GeneralizedPluralityRule(4, lambda d: 0 * d + 2**40 + 2),
        GeneralizedPluralityRule(4, lambda d: 0 * d - 254),
    ):
        assert not _takes_packed(monkeypatch, run(rule))
    padded = _padded_graph()
    assert packed_smp(raw_stepper_for(GeneralizedPluralityRule(4), padded, 70)) is None
    assert not _takes_packed(monkeypatch, run(GeneralizedPluralityRule(4), padded))
    with rule_kernel_only():
        assert not _takes_packed(monkeypatch, run())
        assert not _takes_packed(monkeypatch, run(GeneralizedPluralityRule(4)))
    # a traced run is served the timing shim; the path still follows
    # the raw stepper the registry holds
    with obs.telemetry_session(tmp_path / "t.tel", level="debug", command="unit"):
        assert _takes_packed(monkeypatch, run())
        assert _takes_packed(monkeypatch, run(GeneralizedPluralityRule(4)))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("colors", sorted(COLOR_SETS))
def test_packed_edge_cases_match_per_row_oracle(rng, torus_kind, colors, width):
    topo = TORUS_KINDS[torus_kind](4, 4)
    palette = np.asarray(COLOR_SETS[colors], dtype=np.int32)
    batch = palette[rng.integers(0, palette.size, size=(width, 16))]
    planes = int(palette.max()).bit_length()
    # inside the palette, absent from it, and beyond the planes' range
    absent = next(c for c in range(1, 600) if c not in palette)
    for rule in _packed_rules(int(palette.max()) + 1):
        assert packed_smp(raw_stepper_for(rule, topo, width)) is not None
        for target in (int(palette[-1]), absent, 1 << planes):
            for cap in (0, 1, 2, 5, None):
                _assert_packed_run(
                    topo, batch, rule, (type(rule).__name__, target, cap),
                    max_rounds=cap, target_color=target,
                )


def test_packed_plurality_raises_its_own_palette_error(rng, monkeypatch):
    """The packed kernel never validates; ``run_batch`` checks the batch
    once before packing, so an out-of-palette colour raises the
    plurality rule's own error, even where SMP would not move (an
    all-4 state is a fixed point)."""
    topo = ToroidalMesh(4, 4)
    rule = GeneralizedPluralityRule(4)
    entered = []
    run_packed = batch_mod._run_packed

    def spy(*args):
        entered.append(args)
        return run_packed(*args)

    monkeypatch.setattr(batch_mod, "_run_packed", spy)
    stray = rng.integers(0, 4, size=(70, 16)).astype(np.int32)
    stray[69, 5] = 4
    for bad in (np.full((3, 16), 4, np.int32), stray):
        with pytest.raises(ValueError, match=r"colors must lie in \[0, 4\)"):
            run_batch(topo, bad, rule, max_rounds=5)
    assert len(entered) == 2
    # a zero cap steps nothing, so it checks nothing, as the int32 loop
    assert not run_batch(topo, stray, rule, max_rounds=0).converged.any()


def _counters(path, fn):
    with obs.telemetry_session(path, level="debug", command="unit"):
        fn()
    return summarize(load_stream(path))["counters"]


def _mixed_word_batch(rng, topo):
    """130 rows (three words, the last one partial) alternating rows
    that cycle to the cap with rows that reach a fixed point."""
    pool = rng.integers(0, 5, size=(2048, topo.num_vertices)).astype(np.int32)
    kw = dict(max_rounds=101)
    res = run_batch(topo, pool, SMPRule(), **kw)
    cycling = pool[~res.converged][:65]
    fixed = pool[res.converged][:65]
    assert len(cycling) == len(fixed) == 65
    batch = np.empty((130, topo.num_vertices), np.int32)
    batch[0::2], batch[1::2] = cycling, fixed
    return batch


def test_packed_words_mixing_fixed_and_brent_rows(tmp_path, rng):
    """Every word holds both fixed-point rows (read when the word leaves)
    and rows retired by their Brent deadline (read at that round)."""
    topo = ToroidalMesh(4, 4)
    batch = _mixed_word_batch(rng, topo)
    kw = dict(max_rounds=101, target_color=0)
    for rule in _packed_rules(5):
        counters = _counters(
            tmp_path / "p.tel", lambda: run_batch(topo, batch, rule, **kw)
        )
        res = _assert_packed_run(topo, batch, rule, "mixed", **kw)
        assert counters["plan.shadow-cycle-retire"] == 65
        assert (~res.converged).sum() == 65


def test_packed_debug_telemetry_matches_rule_kernel(tmp_path, rng):
    """A traced packed run counts what the int32 loop on the rules' own
    kernel counts: one kernel step per round, and each Brent retirement."""
    topo = ToroidalMesh(4, 4)
    batch = _mixed_word_batch(rng, topo)
    kw = dict(max_rounds=101, target_color=0)
    for rule in _packed_rules(5):

        def run():
            run_batch(topo, batch, rule, **kw)

        packed = _counters(tmp_path / "packed.tel", run)
        with rule_kernel_only():
            reference = _counters(tmp_path / "reference.tel", run)
        for name in ("backend.steps", "plan.shadow-cycle-retire"):
            assert packed[name] == reference[name] > 0, (rule, name)
        assert "backend.step-us" in packed

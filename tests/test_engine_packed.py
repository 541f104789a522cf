"""The bit-sliced SMP path of :func:`run_batch` (64 replicas per word).

``run_batch`` steps SMP on packed ``uint64`` words exactly when the
registry serves the compiled SMP plan.  These tests pin:

* **selection** — those conditions and no others, judged on the raw
  cached stepper (a ``debug`` timing shim does not switch paths);
* **the packed edge cases** against per-row :func:`run_synchronous`
  with ``detect_cycles=False``, on every :data:`RESULT_FIELDS` entry:
  batch widths around the 64-row word, colours needing 1, 3, 8 and 9
  bit planes, targets inside, outside and above the planes' range,
  small caps, and words that hold fixed-point and Brent-retired rows
  together;
* **telemetry** — a ``debug`` run counts the same kernel steps and
  shadow retirements as the rules' own kernel on the int32 loop.
"""

import numpy as np
import pytest

from repro import obs
from repro.engine import batch as batch_mod
from repro.engine import clear_plan_cache, run_batch
from repro.engine.plans import raw_stepper_for
from repro.engine.stencil import packed_smp
from repro.obs.report import load_stream, summarize
from repro.rules import ReverseStrongMajority, SMPRule
from repro.topology import ToroidalMesh

from helpers import (
    TORUS_KINDS,
    assert_matches_oracle,
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


def test_packed_path_selection(tmp_path, rng, monkeypatch):
    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(70, 16)).astype(np.int32)

    def run(rule=None, **kw):
        return lambda: run_batch(
            topo, batch, rule or SMPRule(), max_rounds=20, target_color=0, **kw
        )

    assert packed_smp(raw_stepper_for(SMPRule(), topo, 70)) is not None
    assert _takes_packed(monkeypatch, run())
    assert not _takes_packed(monkeypatch, run(ReverseStrongMajority()))
    with rule_kernel_only():
        assert not _takes_packed(monkeypatch, run())
    # a traced run is served the timing shim; the path still follows
    # the raw stepper the registry holds
    with obs.telemetry_session(tmp_path / "t.tel", level="debug", command="unit"):
        assert _takes_packed(monkeypatch, run())


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("colors", sorted(COLOR_SETS))
def test_packed_edge_cases_match_per_row_oracle(rng, torus_kind, colors, width):
    topo = TORUS_KINDS[torus_kind](4, 4)
    palette = np.asarray(COLOR_SETS[colors], dtype=np.int32)
    batch = palette[rng.integers(0, palette.size, size=(width, 16))]
    planes = int(palette.max()).bit_length()
    assert packed_smp(raw_stepper_for(SMPRule(), topo, width)) is not None
    # inside the palette, absent from it, and beyond the planes' range
    absent = next(c for c in range(1, 600) if c not in palette)
    for target in (int(palette[-1]), absent, 1 << planes):
        for cap in (0, 1, 2, 5, None):
            kw = dict(max_rounds=cap, target_color=target)
            res = run_batch(topo, batch, SMPRule(), **kw)
            oracle = per_row_oracle(topo, batch, SMPRule(), **kw)
            assert_matches_oracle(res, oracle, (colors, width, target, cap))


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
    counters = _counters(
        tmp_path / "p.tel", lambda: run_batch(topo, batch, SMPRule(), **kw)
    )
    res = run_batch(topo, batch, SMPRule(), **kw)
    assert_matches_oracle(res, per_row_oracle(topo, batch, SMPRule(), **kw), "mixed")
    assert counters["plan.shadow-cycle-retire"] == 65
    assert (~res.converged).sum() == 65


def test_packed_debug_telemetry_matches_rule_kernel(tmp_path, rng):
    """A traced packed run counts what the int32 loop on the rules' own
    kernel counts: one kernel step per round, and each Brent retirement."""
    topo = ToroidalMesh(4, 4)
    batch = _mixed_word_batch(rng, topo)
    kw = dict(max_rounds=101, target_color=0)

    def run():
        run_batch(topo, batch, SMPRule(), **kw)

    packed = _counters(tmp_path / "packed.tel", run)
    with rule_kernel_only():
        reference = _counters(tmp_path / "reference.tel", run)
    for name in ("backend.steps", "plan.shadow-cycle-retire"):
        assert packed[name] == reference[name] > 0, name
    assert "backend.step-us" in packed

"""Batched SMP tests: the batch substrate the core searches run on must
agree with the single-configuration engine bit for bit.

The searches batch through :func:`repro.engine.run_batch` under
:class:`~repro.rules.smp.SMPRule`; the rule-agnostic contract for every
rule family lives in ``test_engine_batch.py``, and the row-for-row
match with :func:`repro.engine.run_synchronous` in the oracle matrix of
``test_engine_plans.py``.
"""

import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import run_batch
from repro.rules import SMPRule
from repro.rules.smp import smp_step_batch
from repro.topology import ToroidalMesh


def _run_smp(topo, batch, k, max_rounds):
    """The searches' batched call: SMP rule, no cycle detection."""
    return run_batch(
        topo, batch, SMPRule(), max_rounds=max_rounds, target_color=k,
        detect_cycles=False,
    )


def test_core_import_stays_quiet():
    """Importing repro.core warns about nothing and carries no retired
    batch names."""
    sys.modules.pop("repro.core", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import repro.core
    assert not hasattr(repro.core, "run_batch_smp")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 8))
def test_batch_step_equals_single_step(seed, batch):
    rng = np.random.default_rng(seed)
    topo = ToroidalMesh(4, 5)
    configs = rng.integers(0, 4, size=(batch, topo.num_vertices)).astype(np.int32)
    stepped = smp_step_batch(configs, topo.neighbors)
    rule = SMPRule()
    for b in range(batch):
        assert np.array_equal(stepped[b], rule.step(configs[b], topo))


def test_batch_includes_constructions(torus_kind):
    from repro.core import build_minimum_dynamo

    con = build_minimum_dynamo(torus_kind, 5, 5)
    batch = np.stack([con.colors, con.colors])
    out = _run_smp(con.topo, batch, con.k, max_rounds=200)
    assert out.k_monochromatic.all()
    assert out.monotone.all()


def test_batch_input_not_mutated(rng):
    topo = ToroidalMesh(3, 3)
    configs = rng.integers(0, 3, size=(4, 9)).astype(np.int32)
    before = configs.copy()
    _run_smp(topo, configs, 0, max_rounds=10)
    assert np.array_equal(configs, before)


def test_batch_round_cap():
    from repro.core import theorem4_cordalis_dynamo

    con = theorem4_cordalis_dynamo(8, 8)  # 24 rounds needed
    batch = con.colors[None, :]
    out = _run_smp(con.topo, batch, con.k, max_rounds=5)
    assert not out.converged[0]
    assert not out.k_monochromatic[0]

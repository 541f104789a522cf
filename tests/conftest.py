"""Shared fixtures for the test suite.

Plain helpers (``TORUS_KINDS``, ``random_coloring``, ``grid_colors``)
live in :mod:`helpers` — import them with ``from helpers import ...``,
never from ``conftest`` (the ``conftest`` module name is a rootdir-wide
singleton and shadows across directories).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.stencil import compile_stepper

from helpers import TORUS_KINDS


@pytest.fixture(params=sorted(TORUS_KINDS))
def torus_kind(request):
    """Parametrize a test over the three torus kinds."""
    return request.param


@pytest.fixture(params=[compile_stepper], ids=["stencil"])
def compiled(request):
    """The compiled kernel the parity suites hold against the rules' own
    ``step_batch`` (see :func:`helpers.rule_kernel_only`)."""
    return request.param


@pytest.fixture
def rng():
    """A deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)

"""The flat halo layout at its edges: grids so small or so shaped that the
first and last flat indices and both halo columns feed unique cells.

Every case compares the solver with the per-variable reference in
``test_swe_oracle`` for exact equality, with orography on and off and a
nonzero beta.  Where the reference raises, the solver must raise the
same exception at the same time.
"""

import dataclasses

import numpy as np
import pytest

import koopmanrom as kr
from koopmanrom.errors import CflViolation, NonPositiveDepth

from test_swe_oracle import HILLY, assert_states_equal, ref_lax_wendroff_step, ref_simulate

# the numpy step here; test_swe_compiled runs these tests on the compiled one
pytestmark = pytest.mark.usefixtures("numpy_step")

# 15x6: a row of nx + 1 = 16 values fills whole ring slots of the
# compiled step; 33x4: a wide grid with only two rows off the walls
GRIDS = [(4, 4), (7, 5), (5, 9), (15, 6), (33, 4)]
CHANNELS = {
    "flat": dataclasses.replace(HILLY, orography_amplitude=0.0),
    "hilly": HILLY,
    # a hill high enough that the depth collapses within the run
    "steep": dataclasses.replace(HILLY, orography_amplitude=3000.0),
}


def outcome(fn, *args):
    """(result, None), or (None, exception) for a solver failure."""
    try:
        return fn(*args), None
    except (CflViolation, NonPositiveDepth) as exc:
        return None, exc


def assert_same_outcome(got, want):
    (got_value, got_exc), (want_value, want_exc) = got, want
    if want_exc is None:
        assert got_exc is None, got_exc
        assert_states_equal(got_value if isinstance(got_value, list) else [got_value],
                            want_value if isinstance(want_value, list) else [want_value])
    else:
        assert type(got_exc) is type(want_exc)
        assert got_exc.t == want_exc.t
        assert str(got_exc) == str(want_exc)


def rough_state(grid, constants, seed):
    """A state with a different value in every cell, a duplicate column
    that differs from column 0, and nonzero wall velocity."""
    rng = np.random.default_rng(seed)
    s0 = kr.initial_state(constants, grid)
    shape = (grid.ny, grid.nx)
    return kr.SweState(h=s0.h * (1.0 + 0.05 * rng.standard_normal(shape)),
                       u=s0.u + 0.5 * rng.standard_normal(shape),
                       v=s0.v + 0.5 * rng.standard_normal(shape), t=120.0)


@pytest.mark.parametrize("nx,ny", GRIDS, ids=[f"{nx}x{ny}" for nx, ny in GRIDS])
@pytest.mark.parametrize("channel", list(CHANNELS))
def test_simulate_matches_reference(channel, nx, ny):
    constants = CHANNELS[channel]
    assert constants.coriolis_beta != 0.0
    grid = kr.Grid.for_channel(nx, ny, constants)
    want = outcome(ref_simulate, constants, grid, 1800.0, 40)
    assert (want[1] is not None) == (channel == "steep")
    assert_same_outcome(outcome(kr.simulate, constants, grid, 1800.0, 40), want)


@pytest.mark.parametrize("nx,ny", GRIDS, ids=[f"{nx}x{ny}" for nx, ny in GRIDS])
@pytest.mark.parametrize("channel", ["flat", "hilly"])
@pytest.mark.parametrize("courant", [0.5, 1.5])
def test_step_matches_reference(channel, nx, ny, courant):
    constants = CHANNELS[channel]
    grid = kr.Grid.for_channel(nx, ny, constants)
    state = rough_state(grid, constants, seed=nx * ny)
    dt = courant * min(grid.dx, grid.dy) / kr.swe.max_signal_speed(state, constants)
    want = outcome(ref_lax_wendroff_step, state, dt, constants, grid)
    assert (want[1] is not None) == (courant > 1.0)
    assert_same_outcome(outcome(kr.lax_wendroff_step, state, dt, constants, grid), want)

"""The solver oracles of ``test_swe_oracle`` and ``test_swe_halo`` on the
compiled sub-step of ``_lw.c``.

Those modules run their tests on the numpy step; the same test functions,
imported here, run on the compiled entry the loader binds and, in
``TestPortableEntry``, on the portable entry ``lw_step`` where the
loader binds the AVX2 one.  Each must match the reference exactly: the
edge grids of ``test_swe_halo.GRIDS``, orography, CFL rejection and the
depth collapse with the same exception, time and message.  They skip only
where no C compiler exists (and the portable run where the CPU has no
AVX2, since the loader binds the portable entry there).

``test_one_step_matches_numpy_on_both_entries`` holds both entries to
the numpy step on drawn inputs: grid widths on both sides of each ring
padding, signed zeros, subnormal and overflowing momenta, and states
whose centred differences are exactly zero.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import koopmanrom as kr
from koopmanrom import _lw, swe
from koopmanrom.errors import ToolkitError

from test_swe_halo import (  # noqa: F401  (collected here as well)
    test_simulate_matches_reference as test_halo_simulate_matches_reference,
    test_step_matches_reference as test_halo_step_matches_reference,
)
from test_swe_oracle import (  # noqa: F401
    HILLY,
    test_simulate_matches_reference as test_oracle_simulate_matches_reference,
    test_step_from_nonzero_wall_velocity_matches_reference as
    test_oracle_step_from_nonzero_wall_velocity_matches_reference,
)

pytestmark = pytest.mark.usefixtures("compiled_step")


@pytest.mark.usefixtures("portable_step")
class TestPortableEntry:
    test_halo_simulate_matches_reference = staticmethod(test_halo_simulate_matches_reference)
    test_halo_step_matches_reference = staticmethod(test_halo_step_matches_reference)
    test_oracle_simulate_matches_reference = staticmethod(
        test_oracle_simulate_matches_reference)
    test_oracle_step_from_nonzero_wall_velocity_matches_reference = staticmethod(
        test_oracle_step_from_nonzero_wall_velocity_matches_reference)


# widths nx on both sides of each multiple of 8 in the row length nx + 1,
# where a ring slot of the compiled step is padded
RING_EDGES = [nx for m in range(8, 48, 8) for nx in (m - 2, m - 1, m) if 4 <= nx <= 40]
VELOCITIES = ["noisy", "zero", "-0", "signed zeros", "subnormal", "huge"]


@st.composite
def step_cases(draw):
    """(state, dt, constants, grid) for one step: a hill of 0, 1 or
    3000 m, depth noise up to 30 %, and velocities that are noisy, all
    +0, all -0, +-0 by cell, subnormal or near the overflow of the
    fluxes; optionally every column or every row the same, so that the
    centred differences across them are exact zeros."""
    nx = draw(st.one_of(st.integers(4, 40), st.sampled_from(RING_EDGES)))
    ny = draw(st.integers(4, 24))
    hill = draw(st.sampled_from([0.0, 1.0, 3000.0]))
    constants = dataclasses.replace(HILLY, orography_amplitude=hill)
    grid = kr.Grid.for_channel(nx, ny, constants)
    s0 = kr.initial_state(constants, grid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (ny, nx)
    h = s0.h * (1.0 + draw(st.floats(0.0, 0.3)) * rng.uniform(-1.0, 1.0, shape))
    kind = draw(st.sampled_from(VELOCITIES))
    if kind == "noisy":
        noise = draw(st.floats(0.0, 50.0))
        u, v = (s0.u + noise * rng.standard_normal(shape),
                s0.v + noise * rng.standard_normal(shape))
    elif kind in ("zero", "-0"):
        u, v = np.full((2, *shape), 0.0 if kind == "zero" else -0.0)
    elif kind == "signed zeros":
        u, v = rng.choice([0.0, -0.0], (2, *shape))
    else:
        scale = 1e-318 if kind == "subnormal" else 10.0 ** draw(st.integers(140, 155))
        u, v = scale * rng.standard_normal((2, *shape))
    uniform = draw(st.sampled_from([None, "along x", "along y"]))
    for a in (h, u, v):
        if uniform == "along x":
            a[:] = a[:, :1]
        elif uniform == "along y":
            a[:] = a[:1]
        a[:, -1] = a[:, 0]
    state = kr.SweState(h=h, u=u, v=v, t=60.0)
    courant = draw(st.floats(0.05, 1.2))
    dt = courant * min(grid.dx, grid.dy) / swe.max_signal_speed(state, constants)
    return state, dt, constants, grid


@pytest.fixture
def entries():
    """The step binders by name: the numpy step, the entry the loader
    binds and the portable entry ``lw_step`` (the same where the loader
    binds it)."""
    bound = swe._step.__self__   # compiled_step has set the loaded kernel's bind
    binders = {"numpy": swe._numpy_bind, bound.entry: bound.bind}
    if bound.entry != "lw_step":
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bound.lib, "lw_has_avx2", lambda: 0)
            binders["lw_step"] = _lw.Kernel(bound.lib).bind
    return binders


def step_outcome(bind, case):
    """One ``lax_wendroff_step`` of ``case`` on the binder ``bind``: (h, u,
    v and t as bits, None), or (None, (exception type, message))."""
    with mock.patch.object(swe, "_step", bind):
        try:
            s = kr.lax_wendroff_step(*case)
        except (ToolkitError, ValueError) as exc:   # the documented failures
            return None, (type(exc), str(exc))
    return tuple(a.view(np.int64).tobytes() for a in (s.h, s.u, s.v)) + (s.t,), None


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=step_cases())
def test_one_step_matches_numpy_on_both_entries(entries, case):
    """Both compiled entries give the numpy step's bits, or its exception
    with its message."""
    outcomes = {name: step_outcome(bind, case) for name, bind in entries.items()}
    want = outcomes.pop("numpy")
    for name, got in outcomes.items():
        assert got == want, name

"""The solver oracles of ``test_swe_oracle`` and ``test_swe_halo`` on the
compiled sub-step of ``_lw.c``.

Those modules run their tests on the numpy step; the same test functions,
imported here, run on the compiled entry the loader binds and, in
``TestAvx2Entry`` and ``TestPortableEntry``, on ``lw_step_avx2`` and the
portable ``lw_step`` where the loader binds a faster entry.  Each must
match the reference exactly: the edge grids of ``test_swe_halo.GRIDS``,
orography, CFL rejection and the depth collapse with the same exception,
time and message.  They skip only where no C compiler exists, and an
entry's class where the loader binds that entry or the CPU does not run
it.

``test_one_step_matches_numpy_on_every_entry`` holds every entry the CPU
runs to the numpy step on drawn inputs: grid widths on both sides of each
ring padding, signed zeros, subnormal and overflowing momenta, and states
whose centred differences are exactly zero.
``test_gradients_divide_as_numpy_does`` holds the exact division of the
AVX-512 entry's gradients to numpy's quotients on drawn operands at the
edges of its guards.
"""

import ctypes
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import koopmanrom as kr
from koopmanrom import _lw, swe
from koopmanrom.errors import ToolkitError

from conftest import entry_kernel, runnable
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


class EntryOracles:
    test_halo_simulate_matches_reference = staticmethod(test_halo_simulate_matches_reference)
    test_halo_step_matches_reference = staticmethod(test_halo_step_matches_reference)
    test_oracle_simulate_matches_reference = staticmethod(
        test_oracle_simulate_matches_reference)
    test_oracle_step_from_nonzero_wall_velocity_matches_reference = staticmethod(
        test_oracle_step_from_nonzero_wall_velocity_matches_reference)


@pytest.mark.usefixtures("avx2_step")
class TestAvx2Entry(EntryOracles):
    pass


@pytest.mark.usefixtures("portable_step")
class TestPortableEntry(EntryOracles):
    pass


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
    """The step binders by name: the numpy step and every compiled entry
    the CPU runs."""
    lib = swe._step.__self__.lib   # compiled_step has set the loaded kernel's bind
    return {"numpy": swe._numpy_bind,
            **{name: entry_kernel(lib, name).bind for name in runnable(lib)}}


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
def test_one_step_matches_numpy_on_every_entry(entries, case):
    """Every compiled entry gives the numpy step's bits, or its exception
    with its message."""
    outcomes = {name: step_outcome(bind, case) for name, bind in entries.items()}
    want = outcomes.pop("numpy")
    for name, got in outcomes.items():
        assert got == want, name


# numerators that the exact division takes: zero and the ends 2^-900 and
# 2^900 of its range, with their neighbours inside it
EDGES_IN = np.array([0.0, 2.0**-900, 2.0**900, np.nextafter(2.0**900, 0.0),
                     np.nextafter(2.0**-900, np.inf)])
# numerators that send their row to the division: just past those ends,
# subnormals, the largest and the non-finite values
EDGES_OUT = np.array([np.nextafter(2.0**900, np.inf), np.nextafter(2.0**-900, 0.0), 5e-324,
                      2.2250738585072009e-308, 1e-310, np.finfo(float).max, np.inf, np.nan])
# divisors at and just past the ends of [2^-100, 2^100], and outside it
DIVISORS_IN = [2.0**-100, np.nextafter(2.0**-100, np.inf), 2.0**100,
               np.nextafter(2.0**100, 0.0), 1.0, 2.0, 3.0]
DIVISORS_OUT = [np.nextafter(2.0**-100, 0.0), np.nextafter(2.0**100, np.inf), 0.0, 5e-324,
                2.0**-1000, 2.0**1000, -2.0, np.inf, np.nan]


def mantissas(rng, size):
    """Mantissas in [1, 2): near all ones, near one or drawn."""
    k = rng.integers(0, 64, size) * 2.0**-52
    return np.choose(rng.integers(0, 3, size), [2.0 - (k + 2.0**-52), 1.0 + k,
                                                rng.uniform(1.0, 2.0, size)])


def numerators(rng, size, lowest, highest, out):
    """``size`` numerators of random sign: range edges, and mantissas of
    exponents in [lowest, highest); with ``out`` also values past the
    range the exact division takes."""
    drawn = np.ldexp(mantissas(rng, size), rng.integers(lowest, highest, size))
    kinds, p = [rng.choice(EDGES_IN, size), drawn], [0.2, 0.8]
    if out:
        kinds, p = kinds + [rng.choice(EDGES_OUT, size)], [0.2, 0.7, 0.1]
    return np.choose(rng.choice(len(kinds), size, p=p), kinds) * rng.choice([1.0, -1.0], size)


# a divisor: at, near or past the ends of the range, or a mantissa near
# all ones, near one or drawn, of an exponent inside it
DIVISOR = st.one_of(
    st.sampled_from(DIVISORS_IN + DIVISORS_OUT),
    st.builds(lambda m, x: float(np.ldexp(m, x)),
              st.one_of(st.sampled_from([1.0, 1.0 + 2.0**-52, 2.0 - 2.0**-52]),
                        st.floats(1.0, 2.0, exclude_max=True)),
              st.integers(-100, 99)))


@st.composite
def division_cases(draw):
    """(e, two_d, a, b): three rows of e values a and b, L apart, whose
    differences a - b are divided by two_d: range edges and mantissas
    near all ones, near one or drawn, of all exponents the exact division
    takes or of a narrow band; most rows hold only numerators that it
    takes.  b is zero or drawn as a is."""
    e = draw(st.integers(1, 40))
    lowest, highest = draw(st.sampled_from([(-900, 900), (-20, 20), (-900, -880), (880, 900)]))
    out = draw(st.sampled_from([False, False, True]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.zeros((2, 3, _lw._slot(e)))
    rows[0, :, :e] = numerators(rng, (3, e), lowest, highest, out)
    if draw(st.booleans()):
        rows[1, :, :e] = numerators(rng, (3, e), lowest, highest, out)
    return e, draw(DIVISOR), *rows


@pytest.fixture
def avx512_gradients():
    """``lw_gradients_avx512(e, two_d, a, b, D)`` of the loaded library;
    skips where the CPU does not run the AVX-512 entry."""
    lib = swe._step.__self__.lib   # compiled_step has set the loaded kernel's bind
    if "lw_step_avx512" not in runnable(lib):
        pytest.skip("this CPU does not run lw_step_avx512")
    pointer = ctypes.POINTER(ctypes.c_double)
    fn = lib.lw_gradients_avx512
    fn.argtypes = (ctypes.c_long, ctypes.c_double, pointer, pointer, pointer)
    fn.restype = None
    return lambda e, two_d, *rows: fn(e, two_d, *(x.ctypes.data_as(pointer) for x in rows))


@settings(max_examples=600, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=division_cases())
def test_gradients_divide_as_numpy_does(avx512_gradients, case):
    """The AVX-512 entry's gradients, exact division, row guard and
    divisor guard included, give numpy's (a - b) / two_d bit for bit."""
    e, two_d, a, b = case
    got = np.full_like(a, 7.0)
    avx512_gradients(e, two_d, a, b, got)
    with np.errstate(all="ignore"):
        want = (a[:, :e] - b[:, :e]) / two_d
    assert np.array_equal(got[:, :e].view(np.int64), want.view(np.int64))

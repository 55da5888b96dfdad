"""Oracle for the solver: the stepping path over stacked (h, uh, vh)
against the per-variable scheme it replaced.

The reference below is the earlier solver kept verbatim: one formula per
variable for h, uh and vh, and a ``simulate`` loop and a
``lax_wendroff_step`` that each carry their own CFL gate, depth check,
velocity recovery and periodic closing.  The stacked scheme keeps every
per-element operation in the same order, so the match is exact.
"""

import numpy as np
import pytest

import koopmanrom as kr
from koopmanrom.errors import CflViolation, NonPositiveDepth

from conftest import CLASSIC

# the numpy step here; test_swe_compiled runs these tests on the compiled one
pytestmark = pytest.mark.usefixtures("numpy_step")


class _RefSourceTables:
    def __init__(self, constants, grid):
        nxu = grid.nx - 1
        dx, dy = grid.dx, grid.dy
        X, Y = np.meshgrid(grid.x[:nxu], grid.y)
        H = kr.orography(X, Y, constants)
        Hx = (np.roll(H, -1, axis=1) - np.roll(H, 1, axis=1)) / (2.0 * dx)
        Hy = np.empty_like(H)
        Hy[1:-1] = (H[2:] - H[:-2]) / (2.0 * dy)
        Hy[0] = (-3.0 * H[0] + 4.0 * H[1] - H[2]) / (2.0 * dy)
        Hy[-1] = (3.0 * H[-1] - 4.0 * H[-2] + H[-3]) / (2.0 * dy)
        self.Hx = Hx
        self.Hy = Hy
        self.Hx_mx = (np.roll(H, -1, axis=1) - H) / dx
        self.Hy_mx = 0.5 * (Hy + np.roll(Hy, -1, axis=1))
        self.Hx_my = 0.5 * (Hx[:-1] + Hx[1:])
        self.Hy_my = (H[1:] - H[:-1]) / dy
        self.f = kr.coriolis_at(Y, constants)
        self.f_my = kr.coriolis_at(0.5 * (Y[:-1] + Y[1:]), constants)


def _ref_flux_x(h, u, v, g):
    uh = u * h
    return uh, uh * u + 0.5 * g * h * h, uh * v


def _ref_flux_y(h, u, v, g):
    vh = v * h
    return vh, u * vh, vh * v + 0.5 * g * h * h


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _ref_step_unique(h, u, v, dt, constants, grid, tab):
    g = constants.gravity
    dx, dy = grid.dx, grid.dy
    uh = u * h
    vh = v * h
    Fh, Fu, Fv = _ref_flux_x(h, u, v, g)
    Gh, Gu, Gv = _ref_flux_y(h, u, v, g)

    def ddx(a):
        return (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2.0 * dx)

    def ddy(a, wall_sign):
        # mirror ghost rows: h, u even across the wall, v odd
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - a[:-2]) / (2.0 * dy)
        out[0] = (a[1] - wall_sign * a[1]) / (2.0 * dy)
        out[-1] = (wall_sign * a[-2] - a[-2]) / (2.0 * dy)
        return out

    Fh_x, Fu_x, Fv_x = ddx(Fh), ddx(Fu), ddx(Fv)
    Gh_y = ddy(Gh, -1.0)
    Gu_y = ddy(Gu, -1.0)
    Gv_y = ddy(Gv, +1.0)

    def east(a):
        return np.roll(a, -1, axis=1)

    # half states at x midpoints (i+1/2, j)
    h_mx = 0.5 * (h + east(h)) - (0.5 * dt / dx) * (east(Fh) - Fh) \
        - (0.25 * dt) * (Gh_y + east(Gh_y))
    uh_mx = 0.5 * (uh + east(uh)) - (0.5 * dt / dx) * (east(Fu) - Fu) \
        - (0.25 * dt) * (Gu_y + east(Gu_y))
    vh_mx = 0.5 * (vh + east(vh)) - (0.5 * dt / dx) * (east(Fv) - Fv) \
        - (0.25 * dt) * (Gv_y + east(Gv_y))
    ha = 0.5 * (h + east(h))
    ua = 0.5 * (u + east(u))
    va = 0.5 * (v + east(v))
    uh_mx += (0.5 * dt) * ha * (tab.f * va - g * tab.Hx_mx)
    vh_mx += (0.5 * dt) * ha * (-tab.f * ua - g * tab.Hy_mx)

    # half states at y midpoints (i, j+1/2)
    h_my = 0.5 * (h[:-1] + h[1:]) - (0.5 * dt / dy) * (Gh[1:] - Gh[:-1]) \
        - (0.25 * dt) * (Fh_x[:-1] + Fh_x[1:])
    uh_my = 0.5 * (uh[:-1] + uh[1:]) - (0.5 * dt / dy) * (Gu[1:] - Gu[:-1]) \
        - (0.25 * dt) * (Fu_x[:-1] + Fu_x[1:])
    vh_my = 0.5 * (vh[:-1] + vh[1:]) - (0.5 * dt / dy) * (Gv[1:] - Gv[:-1]) \
        - (0.25 * dt) * (Fv_x[:-1] + Fv_x[1:])
    ha = 0.5 * (h[:-1] + h[1:])
    ua = 0.5 * (u[:-1] + u[1:])
    va = 0.5 * (v[:-1] + v[1:])
    uh_my += (0.5 * dt) * ha * (tab.f_my * va - g * tab.Hx_my)
    vh_my += (0.5 * dt) * ha * (-tab.f_my * ua - g * tab.Hy_my)

    u_mx = uh_mx / h_mx
    v_mx = vh_mx / h_mx
    Fh_m, Fu_m, Fv_m = _ref_flux_x(h_mx, u_mx, v_mx, g)
    u_my = uh_my / h_my
    v_my = vh_my / h_my
    Gh_m, Gu_m, Gv_m = _ref_flux_y(h_my, u_my, v_my, g)

    def west(a):
        return np.roll(a, 1, axis=1)

    def ydiff(Gm):
        # face differences; the wall faces carry zero normal flux
        out = np.empty((Gm.shape[0] + 1, Gm.shape[1]))
        out[1:-1] = Gm[1:] - Gm[:-1]
        out[0] = Gm[0]
        out[-1] = -Gm[-1]
        return out

    h_new = h - (dt / dx) * (Fh_m - west(Fh_m)) - (dt / dy) * ydiff(Gh_m)
    uh_new = uh - (dt / dx) * (Fu_m - west(Fu_m)) - (dt / dy) * ydiff(Gu_m)
    vh_new = vh - (dt / dx) * (Fv_m - west(Fv_m))
    vh_new[1:-1] -= (dt / dy) * (Gv_m[1:] - Gv_m[:-1])

    # corrector source at the time-centred cell state (midpoint averages)
    hx = 0.5 * (h_mx + west(h_mx))
    ux = 0.5 * (u_mx + west(u_mx))
    vx = 0.5 * (v_mx + west(v_mx))
    h_c = hx.copy()
    u_c = ux.copy()
    v_c = vx.copy()
    h_c[1:-1] = 0.5 * (hx[1:-1] + 0.5 * (h_my[1:] + h_my[:-1]))
    u_c[1:-1] = 0.5 * (ux[1:-1] + 0.5 * (u_my[1:] + u_my[:-1]))
    v_c[1:-1] = 0.5 * (vx[1:-1] + 0.5 * (v_my[1:] + v_my[:-1]))
    uh_new += dt * h_c * (tab.f * v_c - g * tab.Hx)
    vh_new += dt * h_c * (-tab.f * u_c - g * tab.Hy)

    return h_new, uh_new, vh_new


def ref_lax_wendroff_step(state, dt, constants, grid):
    if np.min(state.h) <= 0.0:
        raise NonPositiveDepth(state.t, float(np.min(state.h)))
    dt_max = min(grid.dx, grid.dy) / kr.swe.max_signal_speed(state, constants)
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolation(dt, dt_max, state.t)

    nxu = grid.nx - 1
    tab = _RefSourceTables(constants, grid)
    h, u, v = state.h[:, :nxu], state.u[:, :nxu], state.v[:, :nxu]
    h_new, uh_new, vh_new = _ref_step_unique(h, u, v, dt, constants, grid, tab)

    if not np.all(np.isfinite(h_new)) or np.min(h_new) <= 0.0:
        bad = h_new[np.isfinite(h_new)]
        h_min = float(bad.min()) if bad.size else float("nan")
        raise NonPositiveDepth(state.t + dt, h_min)

    u_new = uh_new / h_new
    v_new = vh_new / h_new
    v_new[0, :] = 0.0
    v_new[-1, :] = 0.0

    def close(a):
        out = np.empty((grid.ny, grid.nx))
        out[:, :nxu] = a
        out[:, -1] = a[:, 0]
        return out

    return kr.SweState(h=close(h_new), u=close(u_new), v=close(v_new), t=state.t + dt)


def ref_simulate(constants, grid, snapshot_dt, n_snapshots, cfl=0.8):
    if n_snapshots < 2:
        raise ValueError("need at least two snapshots")
    if not snapshot_dt > 0:
        raise ValueError("snapshot_dt must be positive")

    nxu = grid.nx - 1
    tab = _RefSourceTables(constants, grid)
    state = kr.initial_state(constants, grid)
    out = [state]
    h, u, v = state.h[:, :nxu].copy(), state.u[:, :nxu].copy(), state.v[:, :nxu].copy()
    g = constants.gravity
    dmin = min(grid.dx, grid.dy)
    t = 0.0

    def close(a):
        full = np.empty((grid.ny, grid.nx))
        full[:, :nxu] = a
        full[:, -1] = a[:, 0]
        return full

    for k in range(1, n_snapshots):
        t_target = k * snapshot_dt
        while t < t_target:
            smax = float(np.max(np.abs(u) + np.abs(v) + np.sqrt(g * h)))
            dt = min(cfl * dmin / smax, t_target - t)
            dt_max = dmin / smax
            if dt > dt_max * (1.0 + 1e-12):
                raise CflViolation(dt, dt_max, t)
            h_new, uh_new, vh_new = _ref_step_unique(h, u, v, dt, constants, grid, tab)
            if not np.all(np.isfinite(h_new)) or np.min(h_new) <= 0.0:
                bad = h_new[np.isfinite(h_new)]
                h_min = float(bad.min()) if bad.size else float("nan")
                raise NonPositiveDepth(t + dt, h_min)
            h = h_new
            u = uh_new / h_new
            v = vh_new / h_new
            v[0, :] = 0.0
            v[-1, :] = 0.0
            t = t_target if t_target - t <= dt * (1.0 + 1e-12) else t + dt
        out.append(kr.SweState(h=close(h), u=close(u), v=close(v), t=t_target))
    return out


# classic channel with a hill and the default beta: every source table is nonzero
HILLY = kr.PhysicalConstants(
    orography_amplitude=20.0,
    mean_depth=2000.0,
    shear_depth=220.0,
    wave_depth=133.0,
    channel_length=6000e3,
    channel_width=4400e3,
)


def assert_states_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t
        for name in ("h", "u", "v"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("constants,nx,ny,n_snapshots", [
    (CLASSIC, 64, 32, 145),
    (HILLY, 32, 16, 40),
], ids=["desk-channel", "hilly-channel"])
def test_simulate_matches_reference(constants, nx, ny, n_snapshots):
    assert constants.coriolis_beta != 0.0
    grid = kr.Grid.for_channel(nx, ny, constants)
    want = ref_simulate(constants, grid, 1800.0, n_snapshots)
    got = kr.simulate(constants, grid, 1800.0, n_snapshots)
    assert_states_equal(got, want)


def test_step_from_nonzero_wall_velocity_matches_reference():
    grid = kr.Grid.for_channel(32, 16, HILLY)
    s0 = kr.initial_state(HILLY, grid)
    v = s0.v.copy()
    v[0] = 0.3 * np.cos(2.0 * np.pi * grid.x / HILLY.channel_length)
    v[-1] = -0.2
    state = kr.SweState(h=s0.h, u=s0.u, v=v, t=50.0)
    dt = 0.5 * min(grid.dx, grid.dy) / kr.swe.max_signal_speed(state, HILLY)
    got = kr.lax_wendroff_step(state, dt, HILLY, grid)
    want = ref_lax_wendroff_step(state, dt, HILLY, grid)
    assert_states_equal([got], [want])
    assert not np.any(got.v[[0, -1]])

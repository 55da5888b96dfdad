"""Rotating shallow-water channel solver.

Integrates the conservative shallow-water equations on a rectangular
channel (periodic in x, solid walls in y) with a two-step Lax-Wendroff
scheme on the conserved variables (h, uh, vh).  Forcing comprises a
beta-plane Coriolis term and a fixed orography field; the initial state
is a zonal-wavenumber-one height profile with velocities diagnosed from
the rotational balance.

Conventions
-----------
Fields are (ny, nx) arrays with rows indexed by y and columns by x.
Column nx-1 sits at x = Lmax and always duplicates column 0, so the
periodic direction carries nx-1 unique columns.  Rows 0 and ny-1 are the
channel walls, where the normal velocity v is identically zero.

The scheme steps the unique columns as one (3, ny, nx-1) stack, (h, u, v)
between steps and (h, uh, vh) within one.  ``simulate`` (per sub-step)
and ``lax_wendroff_step`` share one stepping path, ``_advance``: CFL
gate, step, depth check, velocity recovery and v = 0 on the walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CflViolation, NonPositiveDepth


@dataclass(frozen=True)
class PhysicalConstants:
    """Channel constants. Defaults are the reference test problem.

    coriolis_f0      base Coriolis parameter [1/s]
    coriolis_beta    spanwise Coriolis gradient [1/(s m)]
    gravity          gravitational acceleration [m/s^2]
    orography_amplitude   hill amplitude [m]
    mean_depth       background depth H0 [m]
    shear_depth      cross-channel shear amplitude H1 [m]
    wave_depth       zonal wave amplitude H2 [m]
    channel_length   streamwise extent Lmax [m]
    channel_width    spanwise extent Dmax [m]
    """

    coriolis_f0: float = 1e-4
    coriolis_beta: float = 1.5e-11
    gravity: float = 9.81
    orography_amplitude: float = 4000.0
    mean_depth: float = 10e3
    shear_depth: float = -700.0
    wave_depth: float = -400.0
    channel_length: float = 265e3
    channel_width: float = 60e3

    def __post_init__(self):
        if not (self.gravity > 0 and self.channel_length > 0 and self.channel_width > 0):
            raise ValueError("gravity, channel_length and channel_width must be positive")


@dataclass(frozen=True)
class Grid:
    """Uniform node-centred grid covering [0, Lmax] x [0, Dmax]."""

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs nx >= 4 and ny >= 4")
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("grid spacing must be positive")

    @classmethod
    def for_channel(cls, nx: int, ny: int, constants: PhysicalConstants) -> "Grid":
        return cls(nx=nx, ny=ny,
                   dx=constants.channel_length / (nx - 1),
                   dy=constants.channel_width / (ny - 1))

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    @property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    def scaled(self, length_ref: float) -> "Grid":
        return Grid(self.nx, self.ny, self.dx / length_ref, self.dy / length_ref)


@dataclass(frozen=True)
class SweState:
    """Depth and velocity fields at one instant."""

    h: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float


@dataclass(frozen=True)
class ScaleSet:
    """Reference scales for non-dimensionalization; t_ref = l_ref / u_ref."""

    l_ref: float
    h_ref: float
    u_ref: float
    t_ref: float

    def __post_init__(self):
        for name in ("l_ref", "h_ref", "u_ref", "t_ref"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if abs(self.t_ref - self.l_ref / self.u_ref) > 1e-9 * self.t_ref:
            raise ValueError("t_ref must equal l_ref / u_ref")

    @classmethod
    def from_initial_state(cls, state: SweState, constants: PhysicalConstants) -> "ScaleSet":
        # one positive scalar per variable: peak magnitudes of the initial fields
        l_ref = constants.channel_length
        h_ref = float(np.max(state.h))
        u_ref = float(np.max(np.abs(state.u)))
        if u_ref <= 0 or h_ref <= 0:
            raise ValueError("initial fields give non-positive reference scales")
        return cls(l_ref=l_ref, h_ref=h_ref, u_ref=u_ref, t_ref=l_ref / u_ref)


def coriolis_at(y, constants: PhysicalConstants):
    """Coriolis parameter at spanwise position y, linear in y."""
    return constants.coriolis_f0 + constants.coriolis_beta * (y - constants.channel_width)


def orography(x, y, constants: PhysicalConstants):
    """Fixed hill height at (x, y).

    The exponent is evaluated on coordinates scaled by the channel
    length, the only reading that keeps it bounded on a kilometre-scale
    domain.
    """
    xh = np.asarray(x, dtype=float) / constants.channel_length
    yh = np.asarray(y, dtype=float) / constants.channel_length
    return constants.orography_amplitude * np.exp(yh * yh - xh * xh)


def grammeltvedt_height(x, y, constants: PhysicalConstants):
    """Initial height field: mean depth, a cross-channel shear layer and
    a zonal-wavenumber-one wave trapped at mid-channel."""
    c = constants
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half = c.channel_width / 2.0
    shear = c.shear_depth * np.tanh(10.0 * (half - y) / c.channel_width)
    wave = (c.wave_depth * np.sin(2.0 * np.pi * x / c.channel_length)
            / np.cosh(20.0 * (half - y) / c.channel_width) ** 2)
    return c.mean_depth + shear + wave


def geostrophic_velocities(constants: PhysicalConstants, grid: Grid):
    """Initial velocities diagnosed from the height field.

    Returns (u0, v0) as (ny, nx) arrays; v0 is zeroed on the wall rows.
    Raises ValueError when the Coriolis parameter vanishes on any grid
    row, since both components divide by it.
    """
    c = constants
    X, Y = np.meshgrid(grid.x, grid.y)
    f = coriolis_at(Y, c)
    if np.any(f == 0.0):
        raise ValueError("Coriolis parameter vanishes on a grid row; "
                         "velocity diagnosis divides by it")
    g = c.gravity
    d = c.channel_width
    arg10 = (5.0 * d - 10.0 * Y) / d
    arg20 = (10.0 * d - 20.0 * Y) / d
    sin_x = np.sin(2.0 * np.pi * X / c.channel_length)
    u0 = (-(g / f) * (10.0 * c.shear_depth / d) * (np.tanh(arg10) ** 2 - 1.0)
          - (18.0 * g / f) * c.wave_depth * np.sinh(arg20) * sin_x
          / (d * np.cosh(arg20) ** 3))
    v0 = (2.0 * np.pi * c.wave_depth * (g / (f * c.channel_length))
          * np.cos(2.0 * np.pi * X / c.channel_length)
          / np.cosh(20.0 * (d / 2.0 - Y) / d) ** 2)
    v0[0, :] = 0.0
    v0[-1, :] = 0.0
    return u0, v0


def initial_state(constants: PhysicalConstants, grid: Grid) -> SweState:
    """Balanced initial condition at t = 0, periodic-consistent in x."""
    X, Y = np.meshgrid(grid.x, grid.y)
    h = grammeltvedt_height(X, Y, constants)
    u, v = geostrophic_velocities(constants, grid)
    # enforce the duplicate-column convention exactly
    for a in (h, u, v):
        a[:, -1] = a[:, 0]
    return SweState(h=h, u=u, v=v, t=0.0)


def max_signal_speed(state: SweState, constants: PhysicalConstants) -> float:
    """Conservative signal-speed bound |u| + |v| + sqrt(g h) over the grid."""
    return _signal_speed((state.h, state.u, state.v), constants.gravity)


def _signal_speed(p, g) -> float:
    h, u, v = p
    return float(np.max(np.abs(u) + np.abs(v) + np.sqrt(g * h)))


def total_mass(state: SweState, grid: Grid) -> float:
    """Plain quadrature sum(h) * dx * dy over the unique columns."""
    return float(np.sum(state.h[:, :-1]) * grid.dx * grid.dy)


class _SourceTables:
    """Orography gradients and Coriolis values at nodes and midpoints.

    Gradients are centred differences of the sampled hill: exact
    midpoint differences in the normal direction, averaged nodal centred
    differences transversally, one-sided at the walls.
    """

    def __init__(self, constants: PhysicalConstants, grid: Grid):
        nxu = grid.nx - 1
        dx, dy = grid.dx, grid.dy
        X, Y = np.meshgrid(grid.x[:nxu], grid.y)
        H = orography(X, Y, constants)
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
        self.f = coriolis_at(Y, constants)
        self.f_my = coriolis_at(0.5 * (Y[:-1] + Y[1:]), constants)


# parity of the y fluxes (vh, u vh, v vh + g h^2 / 2) across a wall, where
# the mirror ghost rows keep h and u even and v odd
_WALL_SIGN = np.array([-1.0, -1.0, 1.0])[:, None, None]


def _east(a):
    return np.roll(a, -1, axis=-1)


def _west(a):
    return np.roll(a, 1, axis=-1)


def _primitive(q):
    """(h, u, v) from the stack (h, uh, vh), in place."""
    q[1:] /= q[0]
    return q


def _flux_x(p, g):
    h, u, v = p
    uh = u * h
    return np.stack((uh, uh * u + 0.5 * g * h * h, uh * v))


def _flux_y(p, g):
    h, u, v = p
    vh = v * h
    return np.stack((vh, u * vh, vh * v + 0.5 * g * h * h))


def _add_sources(q, scale, c, f, hx, hy, g):
    """Coriolis and orography sources at the state c = (h, u, v), added
    to the momenta of q with weight ``scale``."""
    h, u, v = c
    q[1] += scale * h * (f * v - g * hx)
    q[2] += scale * h * (-f * u - g * hy)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _step_unique(p, dt, constants, grid, tab):
    """Advance the unique-column stack p = (h, u, v), shape (3, ny, nx-1),
    one time step; returns the conserved stack (h, uh, vh).

    Two-step Richtmyer form with transverse flux corrections in the
    half states (needed for second order in 2D) and pointwise sources
    applied at both stages.  Each stage is written once over the stacked
    variables; only the sources treat the momenta on their own.  Wall
    faces carry exactly zero normal flux for mass and streamwise
    momentum, so the plain mass sum telescopes to zero drift.  The wall
    rows of vh are left unconstrained: the caller sets v = 0 there.
    Overflow to non-finite values near blow-up is left for the caller to
    detect.
    """
    g = constants.gravity
    dx, dy = grid.dx, grid.dy
    q = p.copy()
    q[1:] *= p[0]
    F = _flux_x(p, g)
    G = _flux_y(p, g)
    F_east = _east(F)
    F_x = (F_east - _west(F)) / (2.0 * dx)
    # mirror ghost rows beyond each wall
    G_pad = np.concatenate((_WALL_SIGN * G[:, 1:2], G, _WALL_SIGN * G[:, -2:-1]), axis=1)
    G_y = (G_pad[:, 2:] - G_pad[:, :-2]) / (2.0 * dy)

    # half states at x midpoints (i+1/2, j)
    q_mx = 0.5 * (q + _east(q)) - (0.5 * dt / dx) * (F_east - F) \
        - (0.25 * dt) * (G_y + _east(G_y))
    _add_sources(q_mx, 0.5 * dt, 0.5 * (p + _east(p)), tab.f, tab.Hx_mx, tab.Hy_mx, g)

    # half states at y midpoints (i, j+1/2)
    q_my = 0.5 * (q[:, :-1] + q[:, 1:]) - (0.5 * dt / dy) * (G[:, 1:] - G[:, :-1]) \
        - (0.25 * dt) * (F_x[:, :-1] + F_x[:, 1:])
    _add_sources(q_my, 0.5 * dt, 0.5 * (p[:, :-1] + p[:, 1:]),
                 tab.f_my, tab.Hx_my, tab.Hy_my, g)

    p_mx = _primitive(q_mx)
    p_my = _primitive(q_my)
    F_m = _flux_x(p_mx, g)
    G_m = _flux_y(p_my, g)
    # face differences; the wall faces carry zero normal flux
    G_diff = np.empty_like(q)
    G_diff[:, 1:-1] = G_m[:, 1:] - G_m[:, :-1]
    G_diff[:, 0] = G_m[:, 0]
    G_diff[:, -1] = -G_m[:, -1]
    q_new = q - (dt / dx) * (F_m - _west(F_m)) - (dt / dy) * G_diff

    # corrector source at the time-centred cell state (midpoint averages)
    c = 0.5 * (p_mx + _west(p_mx))
    c[:, 1:-1] = 0.5 * (c[:, 1:-1] + 0.5 * (p_my[:, 1:] + p_my[:, :-1]))
    _add_sources(q_new, dt, c, tab.f, tab.Hx, tab.Hy, g)
    return q_new


def _close(a, grid: Grid) -> np.ndarray:
    """A unique-column field with the duplicate column nx-1 appended."""
    out = np.empty((grid.ny, grid.nx))
    out[:, :-1] = a
    out[:, -1] = a[:, 0]
    return out


def _advance(p, t, dt, smax, constants, grid, tab):
    """Advance the unique-column stack p = (h, u, v), with signal-speed
    bound smax, from time t by dt; returns the new stack.

    Raises CflViolation if dt exceeds min(dx, dy) / smax and
    NonPositiveDepth if the new depth is not finite and positive.
    """
    dt_max = min(grid.dx, grid.dy) / smax
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolation(dt, dt_max, t)
    q = _step_unique(p, dt, constants, grid, tab)
    h = q[0]
    if not np.all(np.isfinite(h)) or np.min(h) <= 0.0:
        bad = h[np.isfinite(h)]
        h_min = float(bad.min()) if bad.size else float("nan")
        raise NonPositiveDepth(t + dt, h_min)
    # in place: a copy would free the block the step allocated last, and
    # malloc would then return the step's temporaries to the OS each step
    # (850 rather than 6 page faults and 2x the time per 129 x 65 step)
    p = _primitive(q)
    p[2, 0] = 0.0
    p[2, -1] = 0.0
    return p


def lax_wendroff_step(state: SweState, dt: float, constants: PhysicalConstants,
                      grid: Grid) -> SweState:
    """Advance one step of length dt.

    Raises CflViolation if dt exceeds the unit-Courant envelope
    min(dx, dy) / max(|u| + |v| + sqrt(g h)) and NonPositiveDepth if the
    given or the updated depth is not strictly positive everywhere.
    """
    if np.min(state.h) <= 0.0:
        raise NonPositiveDepth(state.t, float(np.min(state.h)))
    p = np.stack([a[:, :grid.nx - 1] for a in (state.h, state.u, state.v)])
    p = _advance(p, state.t, dt, max_signal_speed(state, constants), constants, grid,
                 _SourceTables(constants, grid))
    return SweState(h=_close(p[0], grid), u=_close(p[1], grid), v=_close(p[2], grid),
                    t=state.t + dt)


def simulate(constants: PhysicalConstants, grid: Grid, snapshot_dt: float,
             n_snapshots: int, cfl: float = 0.8) -> list[SweState]:
    """Run from the balanced initial condition, sampling every snapshot_dt.

    Sub-steps internally at the CFL-limited dt (factor ``cfl``) and
    truncates the final sub-step of each interval to land exactly on the
    snapshot time.  Returns n_snapshots states with t = 0, snapshot_dt,
    ..., (n_snapshots - 1) * snapshot_dt.
    """
    if n_snapshots < 2:
        raise ValueError("need at least two snapshots")
    if not (snapshot_dt > 0 and np.isfinite((n_snapshots - 1) * snapshot_dt)):
        raise ValueError("snapshot_dt must be positive with a finite horizon "
                         "(n_snapshots - 1) * snapshot_dt")

    tab = _SourceTables(constants, grid)
    state = initial_state(constants, grid)
    out = [state]
    p = np.stack([a[:, :grid.nx - 1] for a in (state.h, state.u, state.v)])
    dmin = min(grid.dx, grid.dy)
    t = 0.0
    for k in range(1, n_snapshots):
        t_target = k * snapshot_dt
        while t < t_target:
            smax = _signal_speed(p, constants.gravity)
            dt = min(cfl * dmin / smax, t_target - t)
            p = _advance(p, t, dt, smax, constants, grid, tab)
            t = t_target if t_target - t <= dt * (1.0 + 1e-12) else t + dt
        out.append(SweState(h=_close(p[0], grid), u=_close(p[1], grid),
                            v=_close(p[2], grid), t=t_target))
    return out


def nondimensionalize(states: Sequence[SweState], scales: ScaleSet) -> list[SweState]:
    """Scale (t, h, u, v) by (t_ref, h_ref, u_ref, u_ref)."""
    return [SweState(h=s.h / scales.h_ref, u=s.u / scales.u_ref,
                     v=s.v / scales.u_ref, t=s.t / scales.t_ref)
            for s in states]


def dimensionalize(states: Sequence[SweState], scales: ScaleSet) -> list[SweState]:
    """Inverse of :func:`nondimensionalize`."""
    return [SweState(h=s.h * scales.h_ref, u=s.u * scales.u_ref,
                     v=s.v * scales.u_ref, t=s.t * scales.t_ref)
            for s in states]


def vorticity(state: SweState, grid: Grid) -> np.ndarray:
    """dv/dx - du/dy: centred interior, periodic wrap in x, one-sided at
    the walls.  Returns a (ny, nx) array, periodic-consistent in x."""
    if grid.nx < 3 or grid.ny < 3:
        raise ValueError("vorticity needs nx >= 3 and ny >= 3")
    nxu = grid.nx - 1
    u = state.u[:, :nxu]
    v = state.v[:, :nxu]
    dvdx = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * grid.dx)
    dudy = np.empty_like(u)
    dudy[1:-1] = (u[2:] - u[:-2]) / (2.0 * grid.dy)
    dudy[0] = (u[1] - u[0]) / grid.dy
    dudy[-1] = (u[-1] - u[-2]) / grid.dy
    return _close(dvdx - dudy, grid)


__all__ = [
    "PhysicalConstants", "Grid", "SweState", "ScaleSet",
    "coriolis_at", "orography", "grammeltvedt_height",
    "geostrophic_velocities", "initial_state", "lax_wendroff_step",
    "simulate", "nondimensionalize", "dimensionalize", "vorticity",
    "max_signal_speed", "total_mass",
]

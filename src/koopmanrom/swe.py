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

The scheme steps one (3, ny * (nx+1)) stack, (h, u, v) between steps
and (h, uh, vh) within one, in a flat halo layout: each row holds a
periodic halo column (a copy of unique column nx-2), the nx-1 unique
columns, and a second halo column (a copy of unique column 0), and the
rows follow each other in one C-contiguous block per variable.  A
stencil neighbour is then a flat offset, +-1 in x and +-(nx+1) in y, so
every operation runs on whole contiguous rows of the block; neither a
3-D slice, which numpy splits into ny short rows, nor an ``np.roll``
copy is needed.  The halo columns are refreshed at the end of every
step, before the depth check, so everything that reads the new state
sees only copies of unique values there.  Every buffer is allocated once
per run (``_Workspace``).

``simulate`` (per sub-step) and ``lax_wendroff_step`` share one Python
stepping entry, ``_advance``: CFL gate, step, halo refresh, depth check,
velocity recovery and v = 0 on the walls, returning the new signal
speed.  The step has two implementations with bit-identical results and
one contract: a binder takes a workspace and returns ``step(dt)``, which
``_advance`` keeps on the workspace, and owns the scratch of its steps.
``_numpy_bind`` is the portable one and the reference.  ``_lw.Kernel.bind``
runs ``_lw.c``, one C function doing the same operations per element in
one sweep over the grid rows, its intermediates in rings of a few rows;
it is built with the C compiler at the first ``_advance`` of a process
(never at import), cached per user, and selected only when one step of
it on a probe grid matches the numpy step bit for bit.  Without a
compiler, or when the build, the load or that check fails, the numpy
step runs.
"""

from __future__ import annotations

import contextlib
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
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} = {value} is not finite")


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
        try:   # below 2 divides by 1, beyond floats has no spacing: Grid refuses both
            return cls(nx=nx, ny=ny, dx=constants.channel_length / max(nx - 1, 1),
                       dy=constants.channel_width / max(ny - 1, 1))
        except OverflowError:
            return cls(nx=nx, ny=ny, dx=0.0, dy=0.0)

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
    s, t = np.empty((2,) + np.shape(state.h))
    return _signal_speed((state.h, state.u, state.v), constants.gravity, s, t)


def _signal_speed(p, g, s, t) -> float:
    """max(|u| + |v| + sqrt(g h)) over p = (h, u, v), using scratch s and t."""
    h, u, v = p
    np.abs(u, out=s)
    s += np.abs(v, out=t)
    np.multiply(h, g, out=t)
    s += np.sqrt(t, out=t)
    return float(s.max())


def total_mass(state: SweState, grid: Grid) -> float:
    """Plain quadrature sum(h) * dx * dy over the unique columns, or inf."""
    with np.errstate(over="ignore"):
        return float(np.sum(state.h[:, :-1]) * grid.dx * grid.dy)


def _with_halo(a):
    """Rows of unique columns, shape (..., rows, nx-1), as flat blocks of
    rows * (nx+1) values, shape (..., rows * (nx+1)), with both periodic
    halo columns filled."""
    *lead, rows, nu = a.shape
    out = np.empty((*lead, rows, nu + 2))
    out[..., 1:-1] = a
    _refresh_halo(out)
    return out.reshape(*lead, rows * (nu + 2))


def _refresh_halo(a):
    """Copy unique columns nx-2 and 0 into the halo columns of a (..., rows,
    nx+1) view."""
    a[..., 0] = a[..., -2]
    a[..., -1] = a[..., 1]


@contextlib.contextmanager
def _setup_guard():
    """ValueError for an overflow, a division by zero or a NaN in the block."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:   # an overflow, or a speed below the float range
        raise ValueError(f"no finite first sub-step on this grid: {exc}") from exc


class _SourceTables:
    """Coriolis values and gravity times the orography gradients, in the
    flat halo layout, at cells, at x faces and at y faces.

    Each of ``cell``, ``mx`` and ``my`` is the pair of stacks (f, -f) and
    (g Hx, g Hy), with -f and g H formed once here (bit for bit the
    products a step would form), so both momentum sources take one
    multiply and one subtract per step.  Gradients are centred
    differences of the sampled hill: exact midpoint differences in the
    normal direction, averaged nodal centred differences transversally,
    one-sided at the walls.  The x-face entry in halo column 0 is the
    face of unique column nx-2, east of which lies unique column 0.
    """

    @_setup_guard()
    def __init__(self, constants: PhysicalConstants, grid: Grid):
        nxu = grid.nx - 1
        dx, dy = grid.dx, grid.dy
        g = constants.gravity
        X, Y = np.meshgrid(grid.x[:nxu], grid.y)
        H = orography(X, Y, constants)
        Hx = (np.roll(H, -1, axis=1) - np.roll(H, 1, axis=1)) / (2.0 * dx)
        Hy = np.empty_like(H)
        Hy[1:-1] = (H[2:] - H[:-2]) / (2.0 * dy)
        Hy[0] = (-3.0 * H[0] + 4.0 * H[1] - H[2]) / (2.0 * dy)
        Hy[-1] = (3.0 * H[-1] - 4.0 * H[-2] + H[-3]) / (2.0 * dy)
        Hx_mx = (np.roll(H, -1, axis=1) - H) / dx
        Hy_mx = 0.5 * (Hy + np.roll(Hy, -1, axis=1))
        Hx_my = 0.5 * (Hx[:-1] + Hx[1:])
        Hy_my = (H[1:] - H[:-1]) / dy
        f = coriolis_at(Y, constants)
        f_my = coriolis_at(0.5 * (Y[:-1] + Y[1:]), constants)
        self.cell = (_with_halo(np.stack((f, -f))), _with_halo(np.stack((g * Hx, g * Hy))))
        self.mx = (self.cell[0][:, :-1],
                   _with_halo(np.stack((g * Hx_mx, g * Hy_mx)))[:, :-1])
        self.my = (_with_halo(np.stack((f_my, -f_my))),
                   _with_halo(np.stack((g * Hx_my, g * Hy_my))))


# parity of the y fluxes (vh, u vh, v vh + g h^2 / 2) across a wall, where
# the mirror ghost rows keep h and u even and v odd
_WALL_SIGN = np.array([-1.0, -1.0, 1.0])[:, None]


class _Workspace:
    """One grid's flat halo layout, source tables, state buffers and step.

    A field is a C-contiguous block of ny rows of E = nx + 1 values:
    column 0 is a halo copy of unique column nx-2, columns 1..nx-1 are
    the unique columns 0..nx-2, and column nx copies unique column 0.
    A stack (3, ny * E) holds (h, u, v) or (h, uh, vh).  A step reads
    ``p`` = (h, u, v), writes the new conserved state into ``q`` and then
    the new (h, u, v) into ``p``; the two buffers are never swapped.
    ``step`` is bound to them at the first ``_advance``.
    """

    def __init__(self, constants: PhysicalConstants, grid: Grid):
        self.gravity, self.dx, self.dy = constants.gravity, grid.dx, grid.dy
        self.ny, self.width = grid.ny, grid.nx + 1
        self.tab = _SourceTables(constants, grid)
        n = self.ny * self.width
        self.p, self.q = np.zeros((3, n)), np.zeros((3, n))
        self.step = None

    def load(self, state: SweState) -> None:
        """(h, u, v) of ``state``, whose column nx-1 is ignored, into p;
        NonPositiveDepth at ``state.t`` unless its depth is positive."""
        h_min = float(np.min(state.h))
        if not h_min > 0.0:   # a NaN depth fails too
            raise NonPositiveDepth(state.t, h_min)
        p = self.p.reshape(3, self.ny, self.width)
        for dst, src in zip(p, (state.h, state.u, state.v)):
            dst[:, 1:-1] = src[:, :self.width - 2]
        _refresh_halo(p)

    def state(self, t: float) -> SweState:
        """p as a state: unique columns 0..nx-2, then the east halo
        column, which is the duplicate column nx-1."""
        h, u, v = (a[:, 1:].copy() for a in self.p.reshape(3, self.ny, self.width))
        return SweState(h=h, u=u, v=v, t=t)

    def signal_speed(self) -> float:
        """max(|u| + |v| + sqrt(g h)) of p."""
        return _signal_speed(self.p, self.gravity, *np.empty((2, self.p.shape[1])))


def _primitive(q):
    """(h, u, v) from the stack (h, uh, vh), in place."""
    q[1:] /= q[0]
    return q


def _pressure(h, g, out):
    """g h^2 / 2, formed as (g / 2) h times h, into out."""
    np.multiply(h, 0.5 * g, out=out)
    out *= h
    return out


def _flux_x(p, out, pressure):
    """(uh, uh u + g h^2 / 2, uh v) of p = (h, u, v) into out, whose
    first row already holds uh."""
    np.multiply(out[0], p[1:], out=out[1:])
    out[1] += pressure


def _flux_y(p, out, pressure):
    """(vh, u vh, vh v + g h^2 / 2) of p = (h, u, v) into out, whose
    first row already holds vh."""
    np.multiply(p[1:], out[0], out=out[1:])
    out[2] += pressure


def _add_sources(q, scale, c, tables, s, t):
    """Coriolis and orography sources at the state c = (h, u, v), added
    to the momenta of q with weight ``scale``: scale h (f v - g Hx) and
    scale h (-f u - g Hy), with ``tables`` = ((f, -f), (g Hx, g Hy))."""
    f, g_h = tables
    np.multiply(f, c[:0:-1], out=t)
    t -= g_h
    t *= np.multiply(c[0], scale, out=s)
    q[1:] += t


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _step_unique(p, q, tab, scratch, g, dx, dy, e, dt):
    """Advance the stack p = (h, u, v), whose halo columns are fresh, one
    step of dt on rows of e values, with the stacks ``scratch``; returns
    the conserved stack (h, uh, vh), written into q with fresh halo columns.

    Two-step Richtmyer form with transverse flux corrections in the
    half states (needed for second order in 2D) and pointwise sources
    applied at both stages.  Each stage is written once over the stacked
    variables; only the sources treat the momenta on their own.  Wall
    faces carry exactly zero normal flux for mass and streamwise
    momentum, so the plain mass sum telescopes to zero drift.  The wall
    rows of vh are left unconstrained: the caller sets v = 0 there.
    Overflow to non-finite values near blow-up is left for the caller to
    detect.

    Every stencil neighbour is a flat offset into the (3, ny * E) block,
    +-1 in x and +-E in y, so each operation runs on long contiguous
    rows.  (A 3-D slice of a halo'd array would split every operation
    into ny short rows, which numpy cannot merge.)  A stage is computed
    over the whole flat range its offsets allow.  Values that land in a
    halo column, or read across a row end, are garbage that no unique
    column reads, and the halo refresh at the end overwrites them.
    """
    F, G, F_x, G_y, tmp, q_mx, q_my, s, t = scratch
    h = p[0]
    q[0] = h
    np.multiply(p[1:], h, out=q[1:])
    pressure = _pressure(h, g, s)
    F[0] = q[1]
    _flux_x(p, F, pressure)
    G[0] = q[2]
    _flux_y(p, G, pressure)
    np.subtract(F[:, 2:], F[:, :-2], out=F_x[:, 1:-1])
    F_x /= 2.0 * dx
    # mirror ghost rows beyond each wall
    np.subtract(G[:, 2 * e:], G[:, :-2 * e], out=G_y[:, e:-e])
    np.multiply(_WALL_SIGN, G[:, e:2 * e], out=G_y[:, :e])
    np.subtract(G[:, e:2 * e], G_y[:, :e], out=G_y[:, :e])
    np.multiply(_WALL_SIGN, G[:, -2 * e:-e], out=G_y[:, -e:])
    G_y[:, -e:] -= G[:, -2 * e:-e]
    G_y /= 2.0 * dy

    # half states at x faces: cells k and k + 1
    np.add(q[:, :-1], q[:, 1:], out=q_mx)
    q_mx *= 0.5
    a = tmp[:, :-1]
    np.subtract(F[:, 1:], F[:, :-1], out=a)
    a *= 0.5 * dt / dx
    q_mx -= a
    np.add(G_y[:, :-1], G_y[:, 1:], out=a)
    a *= 0.25 * dt
    q_mx -= a
    np.add(p[:, :-1], p[:, 1:], out=a)
    a *= 0.5
    _add_sources(q_mx, 0.5 * dt, a, tab.mx, s[:-1], t[:, :-1])

    # half states at y faces: cells k and k + E
    np.add(q[:, :-e], q[:, e:], out=q_my)
    q_my *= 0.5
    a = tmp[:, :-e]
    np.subtract(G[:, e:], G[:, :-e], out=a)
    a *= 0.5 * dt / dy
    q_my -= a
    np.add(F_x[:, :-e], F_x[:, e:], out=a)
    a *= 0.25 * dt
    q_my -= a
    np.add(p[:, :-e], p[:, e:], out=a)
    a *= 0.5
    _add_sources(q_my, 0.5 * dt, a, tab.my, s[:-e], t[:, :-e])

    p_mx = _primitive(q_mx)
    p_my = _primitive(q_my)
    F_m, G_m = F[:, :-1], G[:, :-e]
    np.multiply(p_mx[1], p_mx[0], out=F_m[0])
    _flux_x(p_mx, F_m, _pressure(p_mx[0], g, s[:-1]))
    np.multiply(p_my[2], p_my[0], out=G_m[0])
    _flux_y(p_my, G_m, _pressure(p_my[0], g, s[:-e]))
    # face differences; the wall faces carry zero normal flux
    np.subtract(F_m[:, 1:], F_m[:, :-1], out=tmp[:, 1:-1])
    tmp *= dt / dx
    q -= tmp
    np.subtract(G_m[:, e:], G_m[:, :-e], out=tmp[:, e:-e])
    tmp[:, :e] = G_m[:, :e]
    np.negative(G_m[:, -e:], out=tmp[:, -e:])
    tmp *= dt / dy
    q -= tmp

    # corrector source at the time-centred cell state (midpoint averages)
    np.add(p_mx[:, 1:], p_mx[:, :-1], out=tmp[:, 1:-1])
    tmp *= 0.5
    b = F_x[:, e:-e]   # free since the y half states
    np.add(p_my[:, e:], p_my[:, :-e], out=b)
    b *= 0.5
    tmp[:, e:-e] += b
    tmp[:, e:-e] *= 0.5
    _add_sources(q, dt, tmp, tab.cell, s, t)
    _refresh_halo(q.reshape(3, -1, e))
    return q


def _close(a, grid: Grid) -> np.ndarray:
    """A unique-column field with the duplicate column nx-1 appended."""
    out = np.empty((grid.ny, grid.nx))
    out[:, :-1] = a
    out[:, -1] = a[:, 0]
    return out


def _numpy_bind(w: _Workspace):
    """``step(dt) -> speed`` by ``_step_unique`` on the buffers of ``w``
    and on stacks of its own, allocating nothing per step: the new
    conserved state goes into q and the new (h, u, v), with v = 0 on the
    walls, into p; the signal speed of the new p is returned, or None,
    with p unchanged, when the new depth is not finite and positive."""
    p, q, tab, g, dx, dy, e = w.p, w.q, w.tab, w.gravity, w.dx, w.dy, w.width
    n = w.ny * e
    s, t = np.zeros(n), np.zeros((2, n))   # source and speed scratch
    # fluxes, their centred differences and a work stack at cells; the
    # half states at x faces (cells k and k + 1) and y faces (k and k + E)
    scratch = (*np.zeros((5, 3, n)), np.zeros((3, n - 1)), np.zeros((3, n - e)), s, t)

    def step(dt: float) -> float | None:
        h = _step_unique(p, q, tab, scratch, g, dx, dy, e, dt)[0]
        if not (h.min() > 0.0 and h.max() < np.inf):
            return None
        p[0] = h
        np.divide(q[1:], h, out=p[1:])
        p[2, :e] = 0.0
        p[2, -e:] = 0.0
        return _signal_speed(p, g, s, t[0])

    return step


# The binder _advance binds a new workspace with: _numpy_bind or the bind
# of the loaded _lw.Kernel.  None until the first _advance of the process
# picks one (_select_step); tests set it to run either.
_step = None


def _select_step():
    """The binder, picked at the first call of a process: the compiled
    kernel's when it builds, loads and matches the numpy step bit for bit
    on one step of a small hilly grid, else _numpy_bind."""
    global _step
    if _step is None:
        from . import _lw
        kernel = _lw.load()
        compiled = kernel is not None and _compiled_matches_numpy(kernel.bind)
        _step = kernel.bind if compiled else _numpy_bind
    return _step


def _compiled_matches_numpy(bind) -> bool:
    """Whether one step of the binder ``bind`` gives the numpy step's bits."""
    constants = PhysicalConstants()   # orography, beta and a nonzero v
    grid = Grid.for_channel(12, 9, constants)
    state = initial_state(constants, grid)
    ref, got = _Workspace(constants, grid), _Workspace(constants, grid)
    ref.load(state)
    got.load(state)
    dt = 0.8 * min(grid.dx, grid.dy) / ref.signal_speed()
    want, speed = _numpy_bind(ref)(dt), bind(got)(dt)
    return (want is not None and speed == want
            and np.array_equal(ref.p.view(np.int64), got.p.view(np.int64)))


def _advance(w: _Workspace, t, dt, smax) -> float:
    """Advance w.p = (h, u, v), with signal-speed bound smax, from time t
    by dt, in place; returns the signal speed of the new state.

    Raises CflViolation unless dt is within min(dx, dy) / smax, as for a
    NaN smax, and NonPositiveDepth if the new depth is not finite and
    positive; w.p is then unchanged.  The new state has its halo columns
    refreshed and v = 0 on the walls.
    """
    dt_max = min(w.dx, w.dy) / smax
    if not dt <= dt_max * (1.0 + 1e-12):   # a NaN speed fails too
        raise CflViolation(dt, dt_max, t)
    if w.step is None:
        w.step = (_step or _select_step())(w)
    speed = w.step(dt)
    if speed is None:
        h = w.q[0]
        bad = h[np.isfinite(h)]
        h_min = float(bad.min()) if bad.size else float("nan")
        raise NonPositiveDepth(t + dt, h_min)
    return speed


def lax_wendroff_step(state: SweState, dt: float, constants: PhysicalConstants,
                      grid: Grid) -> SweState:
    """Advance one step of length dt.

    Raises CflViolation unless dt is within the unit-Courant envelope
    min(dx, dy) / max(|u| + |v| + sqrt(g h)), which a NaN velocity makes
    NaN, NonPositiveDepth if the given or the updated depth is not
    positive (a NaN depth is not), and ValueError for forcing beyond floats.
    """
    w = _Workspace(constants, grid)
    w.load(state)
    _advance(w, state.t, dt, max_signal_speed(state, constants))
    return w.state(state.t + dt)


def sampling_horizon(snapshot_dt: float, n_snapshots: int, cfl: float) -> float:
    """(n_snapshots - 1) * snapshot_dt; ValueError names n_snapshots below 2,
    cfl outside (0, inf), or snapshot_dt for a horizon not finite and > 0."""
    if n_snapshots < 2:
        raise ValueError(f"n_snapshots = {n_snapshots} < 2")
    if not 0.0 < cfl < np.inf:
        raise ValueError(f"cfl = {cfl} must be {'finite' if cfl > 0 else 'positive'}")
    try:
        horizon = float(n_snapshots - 1) * snapshot_dt
    except OverflowError:   # an integer beyond the range of a float
        horizon = np.inf
    if not (snapshot_dt > 0 and np.isfinite(horizon)):
        raise ValueError(f"snapshot_dt = {snapshot_dt} must be positive, with a finite "
                         "horizon (n_snapshots - 1) * snapshot_dt")
    return horizon


def simulate(constants: PhysicalConstants, grid: Grid, snapshot_dt: float,
             n_snapshots: int, cfl: float = 0.8, out=None):
    """Run from the balanced initial condition, sampling every snapshot_dt.

    Sub-steps internally at the CFL-limited dt (factor ``cfl``) and
    truncates the final sub-step of each interval to land exactly on the
    snapshot time.  Hands the n_snapshots states with t = 0, snapshot_dt,
    ..., (n_snapshots - 1) * snapshot_dt, each as it is reached, to
    ``out.append`` and returns ``out``: by default a new list, which then
    holds the whole run.  A sink that writes each state away and keeps
    none holds one snapshot at a time.  Each state's arrays are its own,
    so the sink may keep or modify them.  The first state reaches the
    sink only after every setup check below has passed.

    Raises ValueError before the first step where ``sampling_horizon``
    does, when the initial state, its forcing or its signal speed leaves
    the float range, and naming snapshot_dt when the horizon needs more
    than 2**53 sub-steps of the initial CFL step, which float time
    cannot resolve; a finite horizon below that runs as long as it needs.
    Should the time still stop advancing (t + dt == t), that is a
    blow-up when the signal speed has risen over the last two sub-steps:
    it raises NonPositiveDepth at t with the depth's current minimum, as
    the collapsing depth would otherwise take hundreds of sub-steps at a
    frozen t to reach zero.  With the speed not rising it raises ValueError.
    """
    horizon = sampling_horizon(snapshot_dt, n_snapshots, cfl)
    dmin = min(grid.dx, grid.dy)
    with _setup_guard():
        state = initial_state(constants, grid)
        w = _Workspace(constants, grid)
        w.load(state)
        smax = w.signal_speed()
        first = cfl * dmin / smax
    if horizon > 2.0 ** 53 * first:
        raise ValueError(f"snapshot_dt = {snapshot_dt:g} s: the horizon {horizon:g} s "
                         f"needs more than 2**53 sub-steps of {first:g} s, "
                         "beyond what float time resolves")
    out = [] if out is None else out
    out.append(state)
    t, s_prev, s_prev2 = 0.0, np.inf, np.inf
    for k in range(1, n_snapshots):
        t_target = k * snapshot_dt
        while t < t_target:
            dt = min(cfl * dmin / smax, t_target - t)
            if t + dt == t:
                if smax > s_prev > s_prev2:
                    raise NonPositiveDepth(t, float(w.p[0].min()))
                if not smax > s_prev:
                    raise ValueError(f"time stops advancing at t = {t:g} s: a sub-step of "
                                     f"{dt:g} s leaves it unchanged, short of the horizon "
                                     f"of snapshot_dt = {snapshot_dt:g} s")
            s_prev2, s_prev, smax = s_prev, smax, _advance(w, t, dt, smax)
            t = t_target if t_target - t <= dt * (1.0 + 1e-12) else t + dt
        out.append(w.state(t_target))
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
    "max_signal_speed", "total_mass", "sampling_horizon",
]

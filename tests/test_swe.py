"""Solver unit tests: forcing terms, initial condition, stepping,
scaling and vorticity."""

from dataclasses import fields, replace

import numpy as np
import pytest

import koopmanrom as kr
from koopmanrom.errors import CflViolation, NonPositiveDepth
from koopmanrom.swe import max_signal_speed

# frozen high-precision evaluations of the closed-form fields
GRAMMELTVEDT_QUARTER_WALL = 9300.063553718337625845348  # (Lmax/4, 0)
OROGRAPHY_LMAX_0 = 1471.517764685769286382095          # (Lmax, 0)
V0_COLUMN0_MID = -934.5912889274451005                  # v0(0, Dmax/2)


class TestCoriolis:
    def test_at_far_wall_equals_f0(self, paper_constants):
        assert kr.coriolis_at(paper_constants.channel_width, paper_constants) == 1e-4

    def test_at_near_wall(self, paper_constants):
        assert kr.coriolis_at(0.0, paper_constants) == pytest.approx(9.91e-5, rel=1e-12, abs=0)

    def test_at_mid_channel(self, paper_constants):
        assert kr.coriolis_at(30e3, paper_constants) == pytest.approx(9.955e-5, rel=1e-12, abs=0)


class TestOrography:
    def test_origin_is_amplitude(self, paper_constants):
        assert kr.orography(0.0, 0.0, paper_constants) == 4000.0

    def test_downstream_corner(self, paper_constants):
        got = kr.orography(paper_constants.channel_length, 0.0, paper_constants)
        assert got == pytest.approx(OROGRAPHY_LMAX_0, rel=1e-14)

    def test_zero_amplitude(self, paper_constants):
        c = kr.PhysicalConstants(orography_amplitude=0.0)
        x, y = np.meshgrid(np.linspace(0, c.channel_length, 7),
                           np.linspace(0, c.channel_width, 5))
        assert np.all(kr.orography(x, y, c) == 0.0)


class TestGrammeltvedtHeight:
    def test_mid_channel_inflow(self, paper_constants):
        c = paper_constants
        assert kr.grammeltvedt_height(0.0, c.channel_width / 2, c) == 10000.0

    def test_wave_crest(self, paper_constants):
        c = paper_constants
        got = kr.grammeltvedt_height(c.channel_length / 4, c.channel_width / 2, c)
        assert got == pytest.approx(9600.0, rel=1e-12)

    def test_near_wall_value(self, paper_constants):
        c = paper_constants
        got = kr.grammeltvedt_height(c.channel_length / 4, 0.0, c)
        assert got == pytest.approx(GRAMMELTVEDT_QUARTER_WALL, rel=1e-14)


class TestGeostrophicVelocities:
    def test_zero_perturbations_give_rest(self, paper_constants):
        c = kr.PhysicalConstants(shear_depth=0.0, wave_depth=0.0)
        grid = kr.Grid.for_channel(16, 8, c)
        u0, v0 = kr.geostrophic_velocities(c, grid)
        assert np.all(u0 == 0.0) and np.all(v0 == 0.0)

    def test_first_column_closed_form(self, paper_constants):
        grid = kr.Grid.for_channel(17, 9, paper_constants)
        _, v0 = kr.geostrophic_velocities(paper_constants, grid)
        assert v0[4, 0] == pytest.approx(V0_COLUMN0_MID, rel=1e-12)

    def test_wall_rows_zeroed(self, paper_constants):
        grid = kr.Grid.for_channel(17, 9, paper_constants)
        _, v0 = kr.geostrophic_velocities(paper_constants, grid)
        assert np.all(v0[0] == 0.0) and np.all(v0[-1] == 0.0)

    def test_v0_matches_height_gradient(self, paper_constants):
        # finite-difference oracle of the rotational balance, tightening
        # under refinement
        errs = []
        for nx, ny in ((65, 33), (129, 65)):
            c = paper_constants
            grid = kr.Grid.for_channel(nx, ny, c)
            X, Y = np.meshgrid(grid.x, grid.y)
            h0 = kr.grammeltvedt_height(X, Y, c)
            _, v0 = kr.geostrophic_velocities(c, grid)
            f = kr.coriolis_at(Y, c)
            dh_dx = (np.roll(h0[:, :-1], -1, axis=1) - np.roll(h0[:, :-1], 1, axis=1)) / (2 * grid.dx)
            v_fd = (c.gravity / f[:, :-1]) * dh_dx
            err = np.max(np.abs(v0[1:-1, :-1] - v_fd[1:-1])) / np.max(np.abs(v0))
            errs.append(err)
        assert errs[0] < 0.01
        assert errs[1] < errs[0] / 2

    def test_zero_coriolis_row_rejected(self):
        c = kr.PhysicalConstants(coriolis_f0=0.0, coriolis_beta=0.0)
        grid = kr.Grid.for_channel(8, 4, c)
        with pytest.raises(ValueError):
            kr.geostrophic_velocities(c, grid)


class TestConstants:
    def test_reference_defaults(self, paper_constants):
        c = paper_constants
        assert (c.coriolis_f0, c.coriolis_beta, c.gravity) == (1e-4, 1.5e-11, 9.81)
        assert (c.orography_amplitude, c.mean_depth) == (4000.0, 10e3)
        assert (c.shear_depth, c.wave_depth) == (-700.0, -400.0)
        assert (c.channel_length, c.channel_width) == (265e3, 60e3)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            kr.PhysicalConstants(gravity=0.0)
        with pytest.raises(ValueError):
            kr.PhysicalConstants(channel_length=-1.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", [f.name for f in fields(kr.PhysicalConstants)])
    def test_non_finite_field_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            kr.PhysicalConstants(**{name: value})


class TestGrid:
    def test_spacing(self, paper_constants):
        grid = kr.Grid.for_channel(129, 65, paper_constants)
        assert grid.dx == pytest.approx(265e3 / 128) and grid.dy == pytest.approx(60e3 / 64)
        assert grid.x[0] == 0.0 and grid.y[0] == 0.0
        assert grid.x[-1] == pytest.approx(265e3) and grid.y[-1] == pytest.approx(60e3)

    def test_minimum_size(self, paper_constants):
        with pytest.raises(ValueError):
            kr.Grid.for_channel(3, 8, paper_constants)

    @pytest.mark.parametrize("nx, ny", [(1, 5), (5, 1), (0, 5), (3, 5)])
    def test_size_below_minimum_refused_by_grid(self, paper_constants, nx, ny):
        # a size of 1 used to divide by zero before the grid saw it
        with pytest.raises(ValueError, match="grid needs nx >= 4 and ny >= 4"):
            kr.Grid.for_channel(nx, ny, paper_constants)

    def test_size_beyond_float_range_has_no_spacing(self, paper_constants):
        with pytest.raises(ValueError, match="grid spacing must be positive"):
            kr.Grid.for_channel(10**400, 5, paper_constants)

    def test_mass_beyond_float_range_is_inf(self, paper_constants):
        # the sum of the depths overflows: inf, and no warning
        grid = kr.Grid.for_channel(9, 9, paper_constants)
        h = np.full((9, 9), 1e307)
        state = kr.SweState(h=h, u=np.zeros_like(h), v=np.zeros_like(h), t=0.0)
        assert kr.total_mass(state, grid) == np.inf


class TestLaxWendroffStep:
    def test_rest_state_is_exact_fixed_point(self):
        c = kr.PhysicalConstants(coriolis_f0=0.0, coriolis_beta=0.0,
                                 orography_amplitude=0.0)
        grid = kr.Grid.for_channel(16, 8, c)
        h = np.full((8, 16), 5000.0)
        state = kr.SweState(h=h, u=np.zeros_like(h), v=np.zeros_like(h), t=0.0)
        dt = 0.5 * min(grid.dx, grid.dy) / np.sqrt(c.gravity * 5000.0)
        out = kr.lax_wendroff_step(state, dt, c, grid)
        assert np.array_equal(out.h, h)
        assert np.all(out.u == 0.0) and np.all(out.v == 0.0)
        assert out.t == dt

    def test_mass_conserved_over_1000_steps(self, classic_constants):
        grid = kr.Grid.for_channel(64, 32, classic_constants)
        state = kr.initial_state(classic_constants, grid)
        mass0 = kr.total_mass(state, grid)
        for _ in range(1000):
            dt = 0.8 * min(grid.dx, grid.dy) / max_signal_speed(state, classic_constants)
            state = kr.lax_wendroff_step(state, dt, classic_constants, grid)
        drift = abs(kr.total_mass(state, grid) - mass0) / mass0
        assert drift <= 1e-8

    def test_boundaries_preserved_each_step(self, classic_constants):
        grid = kr.Grid.for_channel(32, 16, classic_constants)
        state = kr.initial_state(classic_constants, grid)
        for _ in range(25):
            dt = 0.8 * min(grid.dx, grid.dy) / max_signal_speed(state, classic_constants)
            state = kr.lax_wendroff_step(state, dt, classic_constants, grid)
            assert np.all(state.v[0] == 0.0) and np.all(state.v[-1] == 0.0)
            for a in (state.h, state.u, state.v):
                assert np.array_equal(a[:, -1], a[:, 0])

    def test_small_wave_propagates_at_gravity_speed(self):
        c = kr.PhysicalConstants(coriolis_f0=0.0, coriolis_beta=0.0,
                                 orography_amplitude=0.0, mean_depth=100.0,
                                 channel_length=100e3, channel_width=10e3)
        grid = kr.Grid.for_channel(201, 5, c)
        x = grid.x
        bump = 0.05 * np.exp(-((x - 25e3) / 2.5e3) ** 2)
        h = np.tile(100.0 + bump, (grid.ny, 1))
        state = kr.SweState(h=h, u=np.zeros_like(h), v=np.zeros_like(h), t=0.0)
        speed = np.sqrt(c.gravity * 100.0)
        horizon = 12.5e3 / speed  # right-going crest travels 25 cells
        while state.t < horizon:
            dt = min(0.5 * grid.dx / max_signal_speed(state, c), horizon - state.t)
            state = kr.lax_wendroff_step(state, dt, c, grid)
        row = state.h[2, :-1]
        right = np.where(x[:-1] > 25e3 + 5e3)[0]
        k = right[np.argmax(row[right])]
        # parabolic sub-cell refinement of the crest position
        y0, y1, y2 = row[k - 1], row[k], row[k + 1]
        frac = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
        crest = x[k] + frac * grid.dx
        expected = 25e3 + speed * horizon
        assert abs(crest - expected) <= 0.05 * (speed * horizon)

    def test_cfl_violation_raised(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        state = kr.initial_state(classic_constants, grid)
        dt_max = min(grid.dx, grid.dy) / max_signal_speed(state, classic_constants)
        with pytest.raises(CflViolation):
            kr.lax_wendroff_step(state, 2.0 * dt_max, classic_constants, grid)

    def test_non_positive_depth_is_refused_before_the_step(self, classic_constants,
                                                            monkeypatch):
        def no_step(*args):
            raise AssertionError("lax_wendroff_step stepped a state with h <= 0")

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        s0 = kr.initial_state(classic_constants, grid)
        h = s0.h.copy()
        h[3, 5] = -5.0
        with pytest.raises(NonPositiveDepth) as exc:
            kr.lax_wendroff_step(kr.SweState(h=h, u=s0.u, v=s0.v, t=1800.0), 1.0,
                                 classic_constants, grid)
        assert (exc.value.t, exc.value.h_min) == (1800.0, -5.0)

    def test_nan_velocity_is_a_cfl_violation_before_the_step(self, classic_constants):
        # a NaN signal speed makes the CFL bound NaN, which no dt is within:
        # a step of 1e9 s used to run and end in a depth collapse at t + dt
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        s0 = kr.initial_state(classic_constants, grid)
        u = s0.u.copy()
        u[3, 5] = np.nan
        with pytest.raises(CflViolation) as exc:
            kr.lax_wendroff_step(kr.SweState(h=s0.h, u=u, v=s0.v, t=1800.0), 1e9,
                                 classic_constants, grid)
        assert exc.value.t == 1800.0 and np.isnan(exc.value.dt_max)

    def test_nan_depth_is_refused_before_the_step(self, classic_constants, monkeypatch):
        def no_step(*args):
            raise AssertionError("lax_wendroff_step stepped a state with a NaN depth")

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        s0 = kr.initial_state(classic_constants, grid)
        h = s0.h.copy()
        h[3, 5] = np.nan
        with pytest.raises(NonPositiveDepth) as exc:
            kr.lax_wendroff_step(kr.SweState(h=h, u=s0.u, v=s0.v, t=1800.0), 1e9,
                                 classic_constants, grid)
        assert exc.value.t == 1800.0 and np.isnan(exc.value.h_min)

    def test_supercritical_defaults_blow_up(self, paper_constants):
        # the default constants imply a hypersonic jet; the scheme
        # detects the shock-driven depth collapse within seconds
        grid = kr.Grid.for_channel(65, 33, paper_constants)
        with pytest.raises(NonPositiveDepth) as exc:
            kr.simulate(paper_constants, grid, 30.0, 2)
        assert 0.0 < exc.value.t < 30.0

    def test_supercritical_blow_up_ends_within_a_few_frozen_sub_steps(
            self, paper_constants, monkeypatch, step_path):
        # the depth collapses geometrically while the signal speed runs
        # away; after 107 sub-steps t + dt == t, and 561 more sub-steps
        # used to run at that t before the depth check fired
        advance, calls = kr.swe._advance, []

        def counted(*args):
            calls.append(args[1:])
            return advance(*args)

        monkeypatch.setattr(kr.swe, "_advance", counted)
        grid = kr.Grid.for_channel(65, 33, paper_constants)
        with pytest.raises(NonPositiveDepth) as exc:
            kr.simulate(paper_constants, grid, 30.0, 2)
        assert len(calls) <= 115
        t, dt, _ = calls[-1]
        assert exc.value.t == t + dt
        assert 0.0 < exc.value.h_min < 1e-9


class TestSimulate:
    def test_counts_and_timestamps(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        states = kr.simulate(classic_constants, grid, 600.0, 4)
        assert len(states) == 4
        assert [s.t for s in states] == [0.0, 600.0, 1200.0, 1800.0]

    def test_tiny_interval_matches_single_step(self, classic_constants):
        # a snapshot interval below the CFL step must be taken as one
        # truncated sub-step, identical to stepping directly
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        s0 = kr.initial_state(classic_constants, grid)
        dt = 0.25 * min(grid.dx, grid.dy) / max_signal_speed(s0, classic_constants)
        states = kr.simulate(classic_constants, grid, dt, 2)
        direct = kr.lax_wendroff_step(s0, dt, classic_constants, grid)
        assert np.array_equal(states[1].h, direct.h)
        assert np.array_equal(states[1].u, direct.u)
        assert np.array_equal(states[1].v, direct.v)

    def test_deterministic(self, classic_constants):
        grid = kr.Grid.for_channel(24, 12, classic_constants)
        a = kr.simulate(classic_constants, grid, 900.0, 3)
        b = kr.simulate(classic_constants, grid, 900.0, 3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.h, sb.h)
            assert np.array_equal(sa.u, sb.u)
            assert np.array_equal(sa.v, sb.v)

    def test_rejects_single_snapshot(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        with pytest.raises(ValueError):
            kr.simulate(classic_constants, grid, 600.0, 1)

    @pytest.mark.parametrize("snapshot_dt", [np.inf, -np.inf, np.nan, 0.0, 1e308, 1e300])
    def test_rejects_bad_interval_before_stepping(self, classic_constants, monkeypatch,
                                                  snapshot_dt):
        # an infinite interval would never reach its first snapshot time,
        # nor would 2 * 1e308, the horizon of three snapshots at 1e308 s;
        # at 1e300 s, t + dt == t long before the horizon
        def no_step(*args):
            raise AssertionError("simulate stepped with an invalid interval")

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        with pytest.raises(ValueError, match="snapshot_dt"):
            kr.simulate(classic_constants, grid, snapshot_dt, 3)

    @pytest.mark.parametrize("snapshot_dt, n_snapshots",
                             [(1800.0, 10**400), (10**400, 3), (10**20, 3)],
                             ids=["count-1e400", "interval-1e400", "interval-1e20"])
    def test_rejects_integers_beyond_float_range_before_stepping(
            self, classic_constants, monkeypatch, snapshot_dt, n_snapshots):
        # 10**400 has no float: the horizon is infinite; a horizon of
        # 2e20 s is finite, but past 2**53 sub-steps
        def no_step(*args):
            raise AssertionError("simulate stepped with an invalid horizon")

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        sink = []
        with pytest.raises(ValueError, match="snapshot_dt"):
            kr.simulate(classic_constants, grid, snapshot_dt, n_snapshots, out=sink)
        assert sink == []

    @pytest.mark.parametrize("cfl", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_bad_cfl_before_stepping(self, classic_constants, monkeypatch, cfl):
        # unchecked, 0 and -0.5 would be blamed on snapshot_dt, NaN would
        # give a depth collapse at t = nan and inf a CFL violation at t = 0
        def no_step(*args):
            raise AssertionError("simulate stepped with an invalid cfl")

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        with pytest.raises(ValueError, match="cfl"):
            kr.simulate(classic_constants, grid, 600.0, 3, cfl=cfl)

    def test_initial_depth_below_zero_raises_at_t0(self, monkeypatch):
        # mean_depth 500 m under a 700 m shear layer: min depth about -200 m
        def no_step(*args):
            raise AssertionError("simulate stepped a state with h <= 0")

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        constants = kr.PhysicalConstants(mean_depth=500.0)
        grid = kr.Grid.for_channel(16, 8, constants)
        sink = []
        with pytest.raises(NonPositiveDepth) as exc:
            kr.simulate(constants, grid, 30.0, 2, out=sink)
        assert exc.value.t == 0.0
        assert exc.value.h_min == np.min(kr.initial_state(constants, grid).h) < 0.0
        assert sink == []

    def test_nan_initial_depth_raises_at_t0(self, classic_constants, monkeypatch):
        # it used to pass the depth check, and then the CFL gate with a NaN
        # sub-step, and raise at t = nan; PhysicalConstants refuses a NaN
        # mean depth, so the NaN is put into the initial state itself
        def no_step(*args):
            raise AssertionError("simulate stepped a state with a NaN depth")

        initial_state = kr.swe.initial_state

        def nan_depth(constants, grid):
            state = initial_state(constants, grid)
            return replace(state, h=np.full_like(state.h, np.nan))

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        monkeypatch.setattr(kr.swe, "initial_state", nan_depth)
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        sink = []
        with pytest.raises(NonPositiveDepth) as exc:
            kr.simulate(classic_constants, grid, 30.0, 2, out=sink)
        assert exc.value.t == 0.0 and np.isnan(exc.value.h_min)
        assert sink == []

    @pytest.mark.parametrize("overrides, why", [
        (dict(channel_width=8e6), "overflow"),
        (dict(gravity=5e-324, mean_depth=0.1, shear_depth=0.0, wave_depth=0.0),
         "float division by zero"),
    ], ids=["hill-overflows", "zero-signal-speed"])
    def test_initial_state_beyond_float_range_refused_before_stepping(
            self, monkeypatch, overrides, why):
        # a hill of exp(900) m, and g h below the smallest float: without
        # the setup guard the first raised a RuntimeWarning, the second a
        # ZeroDivisionError
        def no_step(*args):
            raise AssertionError("simulate stepped an unrepresentable state")

        monkeypatch.setattr(kr.swe, "_advance", no_step)
        constants = kr.PhysicalConstants(**overrides)
        sink = []
        with pytest.raises(ValueError, match=f"no finite first sub-step on this grid: {why}"):
            kr.simulate(constants, kr.Grid.for_channel(8, 6, constants), 60.0, 3, out=sink)
        assert sink == []

    def test_forcing_beyond_float_range_refused_by_either_entry(self):
        # a hill of exp(900) m: the workspace's source tables refuse it, for
        # one step as for a run; the step alone raised a RuntimeWarning
        constants = kr.PhysicalConstants(channel_width=8e6, mean_depth=1e6)
        grid = kr.Grid.for_channel(8, 6, constants)
        state = kr.initial_state(constants, grid)
        why = "no finite first sub-step on this grid: overflow encountered in exp"
        with pytest.raises(ValueError, match=why):
            kr.lax_wendroff_step(state, 1.0, constants, grid)
        with pytest.raises(ValueError, match=why):
            kr.simulate(constants, grid, 60.0, 3)

    def test_stalled_time_raises(self, classic_constants, monkeypatch):
        # a signal speed that jumps once and then holds: t + dt == t with
        # nothing running away, which would otherwise loop for ever
        def jump_once(w, *args):
            if not calls:
                w.p[1] *= 1e30
            calls.append(args)
            return w.signal_speed()

        calls = []
        monkeypatch.setattr(kr.swe, "_advance", jump_once)
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        with pytest.raises(ValueError, match="time stops advancing"):
            kr.simulate(classic_constants, grid, 600.0, 3)
        assert len(calls) == 2


class TestSignalSpeed:
    def test_returned_speed_is_that_of_the_new_state(self, classic_constants, step_path):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        w = kr.swe._Workspace(classic_constants, grid)
        w.load(kr.initial_state(classic_constants, grid))
        speed = w.signal_speed()
        got = kr.swe._advance(w, 0.0, 0.5 * min(grid.dx, grid.dy) / speed, speed)
        state = w.state(0.0)
        assert got == max_signal_speed(state, classic_constants)
        w.p[1] *= 2.0   # signal_speed reads p as it is now
        assert w.signal_speed() == max_signal_speed(
            kr.SweState(h=state.h, u=2.0 * state.u, v=state.v, t=0.0), classic_constants)

    def test_nan_velocity_gives_nan_speed(self, classic_constants, step_path):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        w = kr.swe._Workspace(classic_constants, grid)
        w.load(kr.initial_state(classic_constants, grid))
        # a NaN g Hx at one cell reaches only the corrector source of uh
        k = 3 * w.width + 4
        w.tab.cell[1][0, k] = np.nan
        speed = w.signal_speed()
        got = kr.swe._advance(w, 0.0, 0.5 * min(grid.dx, grid.dy) / speed, speed)
        assert np.all(np.isfinite(w.p[0])) and np.isnan(w.p[1, k])
        assert np.isnan(got)

    # (row, flat column) of a 16 x 7 grid, whose blocks hold 7 rows of
    # 17: the compiled kernel takes the maximum over groups of 4 values,
    # so flat index 116, at (6, 14), lies past the last whole group
    @pytest.mark.parametrize("row, col, push", [
        (0, 1, -1e3), (6, 15, -1e3), (0, 8, -1e3), (6, 14, -1e3), (3, 9, -np.inf)],
        ids=["first-unique-cell", "last-unique-cell", "wall-row", "past-last-vector",
             "inf-momentum"])
    def test_step_speed_is_that_of_the_new_state(self, classic_constants, step_path,
                                                 row, col, push):
        grid = kr.Grid.for_channel(16, 7, classic_constants)
        w = kr.swe._Workspace(classic_constants, grid)
        w.load(kr.initial_state(classic_constants, grid))
        # g Hx at one cell reaches only the corrector source of uh there,
        # so a large negative value gives that cell the largest |u|
        w.tab.cell[1][0, row * w.width + col] = push
        speed = w.signal_speed()
        got = kr.swe._advance(w, 0.0, 0.5 * min(grid.dx, grid.dy) / speed, speed)
        u = np.abs(w.p[1].reshape(grid.ny, w.width)[:, 1:-1])   # unique cells
        assert u[row, col - 1] == u.max() and np.sum(u == u.max()) == 1
        want = kr.swe._signal_speed(w.p, classic_constants.gravity,
                                    *np.empty((2, w.p.shape[1])))
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
        assert (got == np.inf) == (push == -np.inf)


class TestSimulateSink:
    class Recorder:
        """An output sink that keeps a copy of what it is handed."""

        def __init__(self):
            self.states = []

        def append(self, state):
            self.states.append(kr.SweState(h=state.h.copy(), u=state.u.copy(),
                                           v=state.v.copy(), t=state.t))
            state.h[...] = np.nan  # the sink owns the arrays: the run must not read them

    def test_sink_sees_the_states_the_list_holds(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        want = kr.simulate(classic_constants, grid, 600.0, 4)
        sink = self.Recorder()
        assert kr.simulate(classic_constants, grid, 600.0, 4, out=sink) is sink
        assert len(sink.states) == 4
        for a, b in zip(sink.states, want):
            assert a.t == b.t
            for name in ("h", "u", "v"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_no_state_before_the_setup_checks(self, classic_constants):
        # the horizon check fails after the initial state is formed
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        sink = self.Recorder()
        with pytest.raises(ValueError, match="2\\*\\*53"):
            kr.simulate(classic_constants, grid, 1e300, 3, out=sink)
        assert sink.states == []


class TestRefinementConvergence:
    def test_second_order_under_grid_doubling(self, classic_constants):
        def final_fields(nx, ny):
            grid = kr.Grid.for_channel(nx, ny, classic_constants)
            s = kr.simulate(classic_constants, grid, 1800.0, 2)[-1]
            return s.h[:, :-1], s.u[:, :-1], s.v[:, :-1]

        grids = [(129, 65), (257, 129), (513, 257)]
        sols = [final_fields(nx, ny) for nx, ny in grids]
        errs = []
        for lev in range(len(grids) - 1):
            num = den = 0.0
            for coarse, fine in zip(sols[lev], sols[lev + 1]):
                diff = coarse - fine[::2, ::2]
                num += np.sum(diff ** 2)
                den += np.sum(fine[::2, ::2] ** 2)
            errs.append(np.sqrt(num / den))
        assert errs[0] / errs[1] >= 3.0


class TestScaling:
    def test_identity_scales(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        states = kr.simulate(classic_constants, grid, 600.0, 2)
        scales = kr.ScaleSet(l_ref=1.0, h_ref=1.0, u_ref=1.0, t_ref=1.0)
        out = kr.nondimensionalize(states, scales)
        for s, o in zip(states, out):
            assert np.array_equal(s.h, o.h) and s.t == o.t

    def test_height_reference_halves_depth(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        states = kr.simulate(classic_constants, grid, 600.0, 2)
        scales = kr.ScaleSet(l_ref=2.0, h_ref=2.0, u_ref=1.0, t_ref=2.0)
        out = kr.nondimensionalize(states, scales)
        assert np.array_equal(out[0].h, states[0].h / 2.0)

    def test_round_trip(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        states = kr.simulate(classic_constants, grid, 600.0, 3)
        scales = kr.ScaleSet.from_initial_state(states[0], classic_constants)
        back = kr.dimensionalize(kr.nondimensionalize(states, scales), scales)
        for s, b in zip(states, back):
            assert np.allclose(s.h, b.h, rtol=1e-15, atol=0.0)
            assert np.allclose(s.u, b.u, rtol=1e-15, atol=0.0)
            assert s.t == pytest.approx(b.t, rel=1e-15, abs=0)

    def test_scale_set_consistency_enforced(self):
        with pytest.raises(ValueError):
            kr.ScaleSet(l_ref=10.0, h_ref=1.0, u_ref=2.0, t_ref=3.0)

    def test_reference_scales_from_initial_state(self, classic_constants):
        grid = kr.Grid.for_channel(32, 16, classic_constants)
        state = kr.initial_state(classic_constants, grid)
        sc = kr.ScaleSet.from_initial_state(state, classic_constants)
        assert sc.l_ref == classic_constants.channel_length
        assert sc.h_ref == np.max(state.h)
        assert sc.u_ref == np.max(np.abs(state.u))
        assert sc.t_ref == sc.l_ref / sc.u_ref


class TestVorticity:
    def test_uniform_flow_has_none(self, classic_constants):
        grid = kr.Grid.for_channel(16, 8, classic_constants)
        h = np.full((8, 16), 100.0)
        state = kr.SweState(h=h, u=np.full_like(h, 3.0), v=np.full_like(h, -2.0), t=0.0)
        assert np.all(kr.vorticity(state, grid) == 0.0)

    def test_sinusoidal_shear_matches_derivative(self, classic_constants):
        c = classic_constants
        errs = []
        for nx in (65, 129):
            grid = kr.Grid.for_channel(nx, 8, c)
            X, _ = np.meshgrid(grid.x, grid.y)
            v = 3.0 * np.sin(2 * np.pi * X / c.channel_length)
            v[:, -1] = v[:, 0]
            state = kr.SweState(h=np.ones_like(v), u=np.zeros_like(v), v=v, t=0.0)
            w = kr.vorticity(state, grid)
            expect = 3.0 * (2 * np.pi / c.channel_length) * np.cos(2 * np.pi * X / c.channel_length)
            expect[:, -1] = expect[:, 0]
            errs.append(np.max(np.abs(w - expect)) / np.max(np.abs(expect)))
        assert errs[0] < 5e-3
        assert errs[0] / errs[1] > 3.5  # O(dx^2)

    def test_rigid_rotation_gives_twice_the_rate(self, classic_constants):
        c = classic_constants
        grid = kr.Grid.for_channel(32, 16, c)
        X, Y = np.meshgrid(grid.x, grid.y)
        omega = 1e-4
        u = -omega * (Y - c.channel_width / 2)
        v = omega * (X - c.channel_length / 2)
        state = kr.SweState(h=np.ones_like(u), u=u, v=v, t=0.0)
        w = kr.vorticity(state, grid)
        interior = w[:, 1:-2]  # periodic wrap is wrong across the seam
        assert np.allclose(interior, 2 * omega, rtol=1e-12)

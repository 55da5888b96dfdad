"""Mode weights, relative error and greedy leading-mode selection."""

import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import koopmanrom as kr
from koopmanrom.errors import IndexOutOfRange, ZeroNormData
from koopmanrom.rom import RomModel

from conftest import decompose, make_modal_data, matrix_from_array, traced_peak


def with_spectrum(lambdas, amplitudes, dt=1.0):
    """A real decomposition of random data with as many modes as
    ``lambdas``, given those eigenvalues and amplitudes."""
    lam = np.asarray(lambdas, complex)
    rows = np.random.default_rng(lam.size).standard_normal((4, lam.size + 1))
    m = matrix_from_array(rows)
    return replace(decompose(m), lambdas=lam, dt=dt, amplitudes=np.asarray(amplitudes, complex))


class TestModeWeights:
    def test_unit_amplitude_unit_eigenvalue(self):
        dec = with_spectrum([1.0], [1.0], dt=1.0)
        weights = kr.mode_weights(dec, 3)
        assert weights.shape == (1,) and weights.dtype == np.float64
        assert weights[0] == pytest.approx(3.0, rel=1e-15)

    def test_growing_eigenvalue_brute_sum(self):
        dec = with_spectrum([2.0], [1.0], dt=0.5)
        (w,) = kr.mode_weights(dec, 3)
        assert w == pytest.approx(3.5, rel=1e-15)  # 0.5 * (1 + 2 + 4)

    def test_zero_amplitude_zero_weight(self):
        dec = with_spectrum([5.0, 0.3], [0.0, 1.0], dt=1.0)
        weights = kr.mode_weights(dec, 6)
        assert weights[0] == 0.0
        assert weights[1] > 0.0

    def test_zero_amplitude_weighs_zero_where_its_power_overflows(self):
        # 5^i overflows from i = 441; 0 * inf was a NaN weight
        dec = with_spectrum([5.0, 0.3], [0.0, 1.0], dt=1.0)
        weights = kr.mode_weights(dec, 500)
        assert weights[0] == 0.0
        assert weights[1] == pytest.approx(1.0 / 0.7, rel=1e-15)

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_horizon_below_one_step_refused(self, n_steps):
        # these horizons gave all-zero weights
        dec = with_spectrum([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match=f"n_steps = {n_steps} < 1"):
            kr.mode_weights(dec, n_steps)

    def test_weights_nonnegative_and_finite(self):
        rng = np.random.default_rng(0)
        data, *_ = make_modal_data(rng, 30, n_pairs=2, n_real=1, n_snapshots=6)
        m = matrix_from_array(data)
        dec = decompose(m)
        vals = kr.mode_weights(dec, m.n_snapshots - 1)
        assert np.all(vals >= 0.0) and np.all(np.isfinite(vals))

    def test_overflowing_weights_keep_the_order_of_the_sums(self):
        """dt = 1e300 makes every weight overflow: they read inf, with no
        warning, and the admission order is still the one the finite
        weights give at dt = 1."""
        data = 1e10 * np.random.default_rng(43).standard_normal((16, 6))
        unit = matrix_from_array(data, dt=1.0)
        huge = matrix_from_array(data, dt=1e300)
        ref = kr.select_leading_modes(unit, decompose(unit), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = decompose(huge)
            model = kr.select_leading_modes(huge, dec, 0.5)
            weights = kr.mode_weights(dec, huge.n_snapshots - 1)
        assert model.order == ref.order and model.selected == ref.selected
        with np.errstate(over="ignore"):
            expected = 1e300 * ref.weights
        assert np.all(np.isinf(expected))
        assert np.array_equal(model.weights, expected)
        assert np.array_equal(weights, expected)

    # a child limited to 1 GiB of address space: the dense table of the
    # powers, 3 * 10**6 steps of desk h's modes, would take 3.4 GB
    HORIZON_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
import numpy as np
from koopmanrom import dmd, rom
spectrum, n_steps = np.load(sys.argv[1]), int(sys.argv[2])
stub = np.empty((1, 1))
dec = dmd.DmdDecomposition(spectrum["lambdas"], float(spectrum["dt"]), spectrum["amplitudes"],
                           v0=stub, r=stub, mode_coords=stub, z=stub)
np.save(sys.argv[3], rom.mode_weights(dec, n_steps))
"""

    def test_a_horizon_beyond_memory_ends_in_weights(self, desk_decompositions, tmp_path):
        """The powers are formed in row blocks: a horizon whose table would
        not fit gives finite or inf weights, with no MemoryError."""
        dec = desk_decompositions["h"]
        n_steps = 3 * 10 ** 6
        assert n_steps * dec.lambdas.size * 8 > 3.4e9
        np.savez(tmp_path / "spectrum.npz", lambdas=dec.lambdas, amplitudes=dec.amplitudes,
                 dt=dec.dt)
        src = str(Path(kr.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", self.HORIZON_CHILD, str(tmp_path / "spectrum.npz"),
                               str(n_steps), str(tmp_path / "weights.npy")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        assert time.monotonic() - start < 5.0
        weights = np.load(tmp_path / "weights.npy")
        assert weights.shape == dec.lambdas.shape
        assert np.all(np.isfinite(weights) | (weights == np.inf))
        # the modes inside the unit circle have summed their convergent series
        inside = np.abs(dec.lambdas) < 1.0
        assert np.isfinite(weights[inside]).all() and np.isinf(weights[~inside]).any()

    def test_index_map_is_bijection(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((40, 13))
        m = matrix_from_array(data)
        dec = decompose(m)
        weights = kr.mode_weights(dec, m.n_snapshots - 1)
        # entry j is the weight of mode j
        assert weights.shape == (12,) == dec.lambdas.shape


class TestRelativeError:
    def test_exact_subset_reproduces_data(self):
        rng = np.random.default_rng(2)
        data, *_ = make_modal_data(rng, 50, n_pairs=2, n_real=0, n_snapshots=5)
        m = matrix_from_array(data)
        dec = decompose(m)
        assert kr.relative_error(m, dec, range(4)) <= 1e-10

    def test_rank_one_data_single_mode(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(30)
        lam = 0.97
        data = np.stack([phi * lam ** i for i in range(2)], axis=1)
        m = matrix_from_array(data)
        dec = decompose(m)
        assert kr.relative_error(m, dec, [0]) <= 1e-10

    def test_zeroed_amplitudes_give_unit_error(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((20, 6))
        m = matrix_from_array(data)
        dec = replace(decompose(m), amplitudes=np.zeros(5, complex))
        assert kr.relative_error(m, dec, range(5)) == pytest.approx(1.0, rel=1e-15)

    def test_zero_reference_rejected(self):
        # the errors of a zero matrix other than the decomposed one
        dec = decompose(matrix_from_array(np.random.default_rng(4).standard_normal((8, 4))))
        with pytest.raises(ZeroNormData):
            kr.relative_error(matrix_from_array(np.zeros((8, 4))), dec, [0])

    def test_per_time_errors_align_with_aggregate(self):
        rng = np.random.default_rng(5)
        data, *_ = make_modal_data(rng, 30, n_pairs=2, n_real=1, n_snapshots=6)
        m = matrix_from_array(data)
        dec = decompose(m)
        subset = list(range(3))
        per = kr.per_time_errors(m, dec, subset)
        assert per.shape == (5,)
        agg = kr.relative_error(m, dec, subset)
        assert agg <= np.max(per) + 1e-15
        assert agg >= np.min(per) - 1e-15


MODE_SUBSET_CALLS = {
    "reconstruct": lambda matrix, dec, subset: kr.reconstruct(dec, subset, 1),
    "relative_error": kr.relative_error,
    "per_time_errors": kr.per_time_errors,
}


@pytest.mark.parametrize("call", MODE_SUBSET_CALLS)
@pytest.mark.parametrize("subset", [[-1], ["m"], [0, 0], [0.5], [True]],
                         ids=["-1", "m", "0,0", "0.5", "True"])
def test_mode_subset_of_distinct_modes_in_range(call, subset):
    """Every function that takes a mode subset rejects an index outside
    [0, m) or one named twice, rather than wrapping or repeating it."""
    m = matrix_from_array(np.random.default_rng(17).standard_normal((20, 6)))
    dec = decompose(m)
    n_modes = dec.lambdas.shape[0]
    subset = [n_modes if j == "m" else j for j in subset]
    with pytest.raises(IndexOutOfRange, match=rf"distinct and in \[0, {n_modes}\)"):
        MODE_SUBSET_CALLS[call](m, dec, subset)


class TestSelection:
    def test_rank_one_needs_one_mode(self):
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(30)
        data = np.stack([phi * 0.97 ** i for i in range(2)], axis=1)
        m = matrix_from_array(data)
        dec = decompose(m)
        rom = kr.select_leading_modes(m, dec, 1e-3)
        assert rom.n_dmd == 1 and rom.converged
        assert rom.achieved_error <= 1e-10

    def test_epsilon_monotonicity(self):
        rng = np.random.default_rng(7)
        data, *_ = make_modal_data(rng, 60, n_pairs=3, n_real=1, n_snapshots=8)
        noise = 1e-5 * rng.standard_normal(data.shape)
        m = matrix_from_array(data + noise)
        dec = decompose(m)
        counts = [kr.select_leading_modes(m, dec, eps).n_dmd
                  for eps in (3e-1, 1e-1, 1e-2, 1e-6)]
        assert counts == sorted(counts)

    def test_threshold_honoured_and_consistent(self):
        rng = np.random.default_rng(8)
        data, *_ = make_modal_data(rng, 60, n_pairs=3, n_real=1, n_snapshots=8)
        m = matrix_from_array(data)
        dec = decompose(m)
        rom = kr.select_leading_modes(m, dec, 1e-2)
        assert rom.converged
        assert rom.achieved_error <= 1e-2
        assert rom.achieved_error == kr.relative_error(m, dec, rom.selected)

    def test_selected_set_is_top_weight_prefix(self):
        rng = np.random.default_rng(9)
        data, *_ = make_modal_data(rng, 60, n_pairs=3, n_real=2, n_snapshots=9)
        m = matrix_from_array(data)
        dec = decompose(m)
        rom = kr.select_leading_modes(m, dec, 1e-4)
        weights = kr.mode_weights(dec, m.n_snapshots - 1)
        chosen = set(rom.selected)
        if len(chosen) < len(weights):
            lowest_in = min(weights[j] for j in chosen)
            highest_out = max(w for j, w in enumerate(weights) if j not in chosen)
            assert lowest_in >= highest_out - 1e-12 * abs(highest_out)

    def test_conjugate_pairs_selected_jointly(self):
        rng = np.random.default_rng(10)
        data, *_ = make_modal_data(rng, 60, n_pairs=3, n_real=1, n_snapshots=8)
        m = matrix_from_array(data)
        dec = decompose(m)
        rom = kr.select_leading_modes(m, dec, 1e-2)
        lam = dec.lambdas[list(rom.selected)]
        assert np.max(np.abs(np.sort_complex(lam) - np.sort_complex(np.conj(lam)))) \
            <= 1e-10 * np.max(np.abs(lam))

    def test_odd_counts_possible_with_real_mode(self):
        rng = np.random.default_rng(11)
        # dominant real mode plus weak pairs: a one-mode model suffices
        phi = rng.standard_normal(40)
        pairs, lams, amps, modes = make_modal_data(rng, 40, n_pairs=2, n_real=0,
                                                   n_snapshots=6)
        data = 1e4 * np.stack([phi * 0.99 ** i for i in range(6)], axis=1) + 1e-3 * pairs
        m = matrix_from_array(data)
        dec = decompose(m)
        rom = kr.select_leading_modes(m, dec, 1e-3)
        assert rom.n_dmd == 1 and rom.converged

    def test_full_set_fidelity_on_linear_data(self):
        rng = np.random.default_rng(12)
        data, *_ = make_modal_data(rng, 60, n_pairs=3, n_real=1, n_snapshots=8)
        m = matrix_from_array(data)
        dec = decompose(m)
        assert kr.relative_error(m, dec, range(7)) <= 1e-8

    def test_scalar_scaling_leaves_selection_unchanged(self):
        rng = np.random.default_rng(13)
        data, *_ = make_modal_data(rng, 60, n_pairs=3, n_real=1, n_snapshots=8)
        noise = 1e-6 * rng.standard_normal(data.shape)
        data = data + noise
        m1 = matrix_from_array(data)
        m4 = matrix_from_array(4.0 * data)
        dec1, dec4 = decompose(m1), decompose(m4)
        rom1 = kr.select_leading_modes(m1, dec1, 1e-3)
        rom4 = kr.select_leading_modes(m4, dec4, 1e-3)
        assert set(rom1.selected) == set(rom4.selected)

    def test_not_converged_reports_best_error(self):
        rng = np.random.default_rng(14)
        # clustered eigenvalues make the mode basis ill-conditioned, so
        # the reconstruction floor sits far above machine precision
        lams = 0.99 + 8e-3 * np.arange(5)
        modes = rng.standard_normal((40, 5))
        modes /= np.linalg.norm(modes, axis=0)
        amps = rng.standard_normal(5)
        powers = lams[None, :] ** np.arange(6)[:, None]
        data = (modes @ (amps[:, None] * powers.T))
        m = matrix_from_array(data)
        dec = decompose(m)
        rom = kr.select_leading_modes(m, dec, 1e-12)
        assert not rom.converged
        assert rom.n_dmd == 5 and len(rom.selected) == 5
        assert rom.achieved_error == kr.relative_error(m, dec, rom.selected)
        assert rom.achieved_error > 1e-12

    @pytest.mark.parametrize("converged", [True, False])
    def test_time_errors_are_per_time_errors_of_the_selection(self, converged):
        rng = np.random.default_rng(16)
        if converged:
            data, *_ = make_modal_data(rng, 60, n_pairs=3, n_real=1, n_snapshots=8)
            epsilon = 1e-2
        else:
            # a clustered spectrum: no prefix reaches the tiny threshold
            lams = 0.99 + 8e-3 * np.arange(5)
            modes = rng.standard_normal((40, 5))
            data = modes @ (rng.standard_normal(5)[:, None]
                            * (lams[None, :] ** np.arange(6)[:, None]).T)
            epsilon = 1e-12
        m = matrix_from_array(data)
        dec = decompose(m)
        model = kr.select_leading_modes(m, dec, epsilon)
        assert model.converged == converged
        assert converged or model.n_dmd == dec.lambdas.shape[0]
        assert model.time_errors.shape == (m.n_snapshots - 1,)
        assert np.array_equal(model.time_errors,
                              kr.per_time_errors(m, dec, model.selected))

    def test_time_errors_on_desk_fields(self, desk_data, desk_decompositions):
        for name, m in desk_data.items():
            dec = desk_decompositions[name]
            model = kr.select_leading_modes(m, dec, 1e-3)
            assert np.array_equal(model.time_errors,
                                  kr.per_time_errors(m, dec, model.selected))

    def test_epsilon_range_validated(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((20, 5))
        m = matrix_from_array(data)
        dec = decompose(m)
        for bad in (0.0, 1.0, 2.0, -0.5):
            with pytest.raises(ValueError):
                kr.select_leading_modes(m, dec, bad)


class TestReferenceNorms:
    """The reference norms come from the snapshot coordinates, so no error
    forms an Nx x Nt temporary.  Peaks are tracemalloc peaks in payloads,
    the bytes of a 20 000-cell, 41-snapshot matrix."""

    @staticmethod
    def decomposed(data):
        matrix = kr.SnapshotMatrix(data=data, nx=200, ny=100, dt=1.0, dx=1.0, dy=1.0,
                                   field_tag=kr.FieldTag.h)
        used, dec = kr.decompose(matrix)
        return used, dec, kr.select_leading_modes(used, dec, 0.5)

    def test_per_time_errors(self):
        rows = np.random.default_rng(41).standard_normal((41, 20000))
        used, dec, model = self.decomposed(rows.T)
        errors, peak = traced_peak(lambda: kr.per_time_errors(used, dec, model.selected))
        assert peak < 0.25 * used.data.nbytes
        assert errors.shape == (40,) and np.all(np.isfinite(errors))

    def test_selection_on_c_ordered_data(self):
        data = np.random.default_rng(42).standard_normal((20000, 41))
        assert data.flags.c_contiguous
        used, dec, model = self.decomposed(data)
        again, peak = traced_peak(lambda: kr.select_leading_modes(used, dec, 0.5))
        assert peak < 0.25 * used.data.nbytes
        assert again.selected == model.selected


class TestReductionPercentage:
    def rom_with(self, full_rank, n_dmd):
        z = np.zeros(0)
        return RomModel(selected=(), lambdas=z,
                        amplitudes=z, n_dmd=n_dmd, achieved_error=0.0,
                        epsilon=1e-3, full_rank=full_rank, converged=True)

    @pytest.mark.parametrize("n_dmd,expected", [
        (21, 92.70), (67, 76.73), (116, 59.72),
        (199, 30.90), (151, 47.56), (212, 26.38),
    ])
    def test_reference_table(self, n_dmd, expected):
        assert kr.reduction_percentage(self.rom_with(288, n_dmd)) == pytest.approx(
            expected, abs=0.005)

    def test_no_reduction(self):
        assert kr.reduction_percentage(self.rom_with(288, 288)) == 0.0

    def test_truncates_toward_zero(self):
        # 100 * 17/24 = 70.8333... -> 70.83
        assert kr.reduction_percentage(self.rom_with(24, 7)) == 70.83

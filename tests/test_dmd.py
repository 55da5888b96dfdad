"""Companion fit, eigendecomposition, amplitudes, reconstruction and the
decomposition store that ``rom.reduced_model`` keeps of them."""

import warnings
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest

import koopmanrom as kr
from koopmanrom import dmd, rom
from koopmanrom.dmd import conjugate_groups
from koopmanrom.errors import IndexOutOfRange, RankDeficient, ZeroNormData
from koopmanrom.snapshots import FieldTag, SnapshotMatrix

from conftest import make_modal_data, matrix_from_array, traced_peak


def full_decomposition(data, dt=1.0):
    m = matrix_from_array(np.asarray(data, float), dt=dt)
    return m, kr.eigendecompose(kr.fit_companion(m), m)


class Unreadable(np.ndarray):
    """An array that raises on any computation with its elements."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("an element of V0 was read")

    def __array_function__(self, *args, **kwargs):
        raise AssertionError("an element of V0 was read")


class TestFitCompanion:
    def test_hand_solved_two_column_pair(self):
        data = np.array([[1.0, 2.0, 4.0], [1.0, 3.0, 9.0]])  # columns [2^i, 3^i]
        fit = kr.fit_companion(matrix_from_array(data))
        assert fit.coefficients == pytest.approx([-6.0, 5.0], rel=1e-12)
        assert np.array_equal(fit.companion[1, 0], 1.0)
        assert fit.companion[0, 0] == 0.0
        assert fit.companion[:, 1] == pytest.approx(fit.coefficients)
        assert fit.residual_norm <= 1e-12

    def test_constant_data_identity_dynamics(self):
        u0 = np.array([3.0, -1.0, 2.0])
        fit = kr.fit_companion(matrix_from_array(np.stack([u0, u0], axis=1)))
        assert fit.coefficients == pytest.approx([1.0], rel=1e-14)
        assert fit.companion.shape == (1, 1)
        assert fit.residual_norm <= 1e-14

    def test_exactly_linear_data_has_tiny_residual(self):
        rng = np.random.default_rng(0)
        a = 0.05 * rng.standard_normal((6, 6))
        u = rng.standard_normal(6)
        cols = [u]
        for _ in range(6):
            cols.append(a @ cols[-1])
        data = np.stack(cols, axis=1)
        fit = kr.fit_companion(matrix_from_array(data))
        assert fit.residual_norm <= 1e-10 * np.linalg.norm(data[:, -1])

    def test_companion_sparsity(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 9))
        fit = kr.fit_companion(matrix_from_array(data))
        s = fit.companion
        nt = 8
        assert s.shape == (nt, nt)
        assert np.array_equal(s[1:, :-1][np.eye(nt - 1, dtype=bool)], np.ones(nt - 1))
        off = s[:, :-1].copy()
        off[np.arange(1, nt), np.arange(nt - 1)] = 0.0
        assert np.all(off == 0.0)
        assert np.array_equal(s[:, -1], fit.coefficients)

    def test_residual_orthogonal_to_history(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40, 11))
        m = matrix_from_array(data)
        fit = kr.fit_companion(m)
        resid = m.data[:, -1] - m.v0 @ fit.coefficients
        bound = 1e-8 * np.linalg.norm(m.v0) * np.linalg.norm(m.data[:, -1])
        assert np.max(np.abs(m.v0.T @ resid)) <= bound

    def test_rank_deficient_reports_numerical_rank(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((20, 3))
        data = np.hstack([base, base[:, :2], rng.standard_normal((20, 1))])
        with pytest.raises(RankDeficient) as exc:
            kr.fit_companion(matrix_from_array(data))
        assert exc.value.rank == 3
        assert exc.value.n_columns == 5

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_window_view_fits_bit_identically(self, order):
        """The fit factors ``matrix.data`` as it is: a C-ordered and an
        F-ordered matrix of the same values fit to the same bits."""
        data = np.random.default_rng(18).standard_normal((50, 9))
        m = matrix_from_array(np.array(data, order=order))
        other = matrix_from_array(np.array(data, order="F" if order == "C" else "C"))
        contiguous = f"{order}_CONTIGUOUS"
        assert m.data.flags[contiguous] and not other.data.flags[contiguous]
        fit, other_fit = kr.fit_companion(m), kr.fit_companion(other)
        assert np.array_equal(fit.coefficients, other_fit.coefficients)
        assert np.array_equal(fit.r, other_fit.r)
        assert fit.residual_norm == other_fit.residual_norm

    def test_underdetermined_rejected(self):
        # 3 rows < 5 columns: the rank gate fails, as for any deficient V0
        rng = np.random.default_rng(4)
        with pytest.raises(RankDeficient) as exc:
            kr.fit_companion(matrix_from_array(rng.standard_normal((3, 6))))
        assert exc.value.n_columns == 5
        assert exc.value.rank <= 3


class TestDecompose:
    def test_full_rank_window_is_kept(self):
        data = np.random.default_rng(6).standard_normal((40, 9))
        m = matrix_from_array(data)
        used, dec = kr.decompose(m)
        assert used is m
        assert dec.amplitudes is not None
        _, dec2 = full_decomposition(data)
        assert np.array_equal(dec.lambdas, dec2.lambdas)
        assert np.array_equal(dec.amplitudes, dec2.amplitudes)

    def test_rank_deficient_window_truncated_once(self):
        # 17 snapshots repeating with period 5: V0 has rank 5 < 16 columns
        rng = np.random.default_rng(7)
        base = rng.standard_normal((40, 5))
        m = matrix_from_array(base[:, np.arange(17) % 5])
        with pytest.raises(RankDeficient):
            kr.fit_companion(m)
        used, dec = kr.decompose(m)
        assert used.n_snapshots == 6
        assert np.array_equal(used.data, m.data[:, :6])
        # the shift by one period: the fifth roots of unity
        assert np.allclose(np.sort(np.angle(dec.lambdas)),
                           np.sort(np.angle(np.exp(2j * np.pi * np.arange(-2, 3) / 5))))
        assert np.allclose(np.abs(dec.lambdas), 1.0)
        assert kr.relative_error(used, dec, range(5)) < 1e-10

    def test_underdetermined_window_truncated(self):
        # 8 cells, 20 snapshots: V0 has rank 8 < 19 columns
        data = np.random.default_rng(9).standard_normal((8, 20))
        used, dec = kr.decompose(matrix_from_array(data))
        assert used.n_snapshots == 9
        assert dec.r.shape == (8, 8)
        assert kr.relative_error(used, dec, range(8)) < 1e-10

    def test_zero_window_raises_zero_norm(self):
        with pytest.raises(ZeroNormData, match="all zero"):
            kr.decompose(matrix_from_array(np.zeros((12, 6))))

    def test_second_rank_deficiency_propagates(self):
        # the truncated window repeats its first column, so V0 is still deficient
        rng = np.random.default_rng(8)
        base = rng.standard_normal((40, 3))
        data = np.hstack([base[:, :1], base, base, base])
        with pytest.raises(RankDeficient):
            kr.decompose(matrix_from_array(data))


class TestEigendecompose:
    def test_hand_solved_eigenvalues(self):
        data = np.array([[1.0, 2.0, 4.0], [1.0, 3.0, 9.0]])
        m = matrix_from_array(data)
        dec = kr.eigendecompose(kr.fit_companion(m), m)
        assert sorted(dec.lambdas.real) == pytest.approx([2.0, 3.0], rel=1e-12)
        assert np.max(np.abs(dec.lambdas.imag)) <= 1e-12

    def test_identity_map(self):
        u0 = np.array([3.0, -1.0, 2.0])
        m = matrix_from_array(np.stack([u0, u0], axis=1), dt=0.5)
        dec = kr.eigendecompose(kr.fit_companion(m), m)
        assert dec.lambdas[0] == pytest.approx(1.0, rel=1e-14)
        assert dec.exponents[0] == pytest.approx(0.0, abs=1e-14)

    def test_two_frequencies_on_unit_circle(self):
        rng = np.random.default_rng(5)
        data, lams, _, _ = make_modal_data(rng, 60, n_pairs=2, n_real=0,
                                           n_snapshots=5, radius_range=(1.0, 1.0))
        _, dec = full_decomposition(data)
        assert np.all(np.abs(np.abs(dec.lambdas) - 1.0) <= 1e-8)
        got = np.sort_complex(dec.lambdas)
        assert got == pytest.approx(np.sort_complex(lams), rel=1e-8)

    def test_exact_recovery_of_seeded_spectrum(self):
        rng = np.random.default_rng(6)
        data, lams, _, _ = make_modal_data(rng, 50, n_pairs=1, n_real=1,
                                           n_snapshots=4)
        _, dec = full_decomposition(data)
        assert np.sort_complex(dec.lambdas) == pytest.approx(np.sort_complex(lams), rel=1e-8)

    def test_modes_unit_norm_and_phase_fixed(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((25, 7))
        _, dec = full_decomposition(data)
        assert np.linalg.norm(dec.modes, axis=0) == pytest.approx(np.ones(6), rel=1e-12)
        # the phase is pinned on the companion eigenvector, not on the mode
        lead = dec.z[np.argmax(np.abs(dec.z), axis=0), np.arange(6)]
        assert np.max(np.abs(lead.imag)) <= 1e-12
        assert np.all(lead.real > 0.0)

    def test_reads_no_element_of_v0(self):
        m = matrix_from_array(np.random.default_rng(13).standard_normal((25, 9)))
        fit = kr.fit_companion(m)
        guarded = replace(m, data=m.data.view(Unreadable))
        dec = kr.eigendecompose(fit, guarded)
        plain = kr.eigendecompose(fit, m)
        assert type(dec.v0) is Unreadable and dmd._same_view(dec.v0, m.v0)
        for name in ("lambdas", "exponents", "mode_coords", "z"):
            assert np.array_equal(getattr(dec, name), getattr(plain, name)), name

    def test_decomposition_is_frozen(self):
        _, dec = full_decomposition(np.random.default_rng(19).standard_normal((12, 6)))
        for f in fields(dec):
            with pytest.raises(FrozenInstanceError):
                setattr(dec, f.name, np.zeros(1))
        with pytest.raises(FrozenInstanceError):
            dec.modes = np.zeros(1)

    def test_conjugate_closure_for_real_data(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((25, 9))
        _, dec = full_decomposition(data)
        got = np.sort_complex(dec.lambdas)
        conj = np.sort_complex(np.conj(dec.lambdas))
        assert np.max(np.abs(got - conj)) <= 1e-10 * np.max(np.abs(got))

    def test_exponents_principal_branch(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((25, 9))
        dt = 7.0
        _, dec = full_decomposition(data, dt=dt)
        omega = dec.exponents.imag
        assert np.all(omega > -np.pi / dt) and np.all(omega <= np.pi / dt)
        assert np.exp(dec.exponents * dt) == pytest.approx(dec.lambdas, rel=1e-12)

    def test_negative_real_eigenvalue_takes_the_principal_branch(self):
        """A spectrum with no conjugate pair is a real array; its negative
        eigenvalue still gets log|lambda|/dt + i pi/dt, not nan."""
        phi = np.random.default_rng(10).standard_normal((6, 2))
        data = phi @ (np.array([[-0.5], [0.8]]) ** np.arange(3))
        dt = 2.0
        _, dec = full_decomposition(data, dt=dt)
        assert dec.lambdas.dtype == np.float64
        assert dec.lambdas == pytest.approx([0.8, -0.5], rel=1e-12)
        assert np.all(np.isfinite(dec.exponents))
        assert dec.exponents.real == pytest.approx(np.log([0.8, 0.5]) / dt, rel=1e-12)
        assert np.array_equal(dec.exponents.imag, [0.0, np.pi / dt])

    def test_fast_decay_at_a_tiny_dt_has_exponent_minus_inf(self):
        """At dt = 1e-308 a mode that decays by 1e-10 a step has exponent
        log(1e-10) / dt, beyond the largest float: -inf, with no warning."""
        _, dec = full_decomposition(np.random.default_rng(12).standard_normal((6, 3)))
        dec = replace(dec, lambdas=np.array([1e-10, 0.8]), dt=1e-308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exponents = dec.exponents
        assert exponents[0].real == -np.inf and exponents[0].imag == 0.0
        assert exponents[1].real == pytest.approx(np.log(0.8) / 1e-308, rel=1e-15)


class TestAmplitudes:
    def test_single_mode_recovers_norm(self):
        u0 = np.array([3.0, 0.0, 4.0])
        m, dec = full_decomposition(np.stack([u0, u0], axis=1))
        assert dec.amplitudes == pytest.approx([5.0], rel=1e-14)

    def test_seeded_amplitudes_recovered(self):
        rng = np.random.default_rng(11)
        data, lams, amps, modes = make_modal_data(rng, 80, n_pairs=2, n_real=1,
                                                  n_snapshots=6)
        _, dec = full_decomposition(data)
        # match by eigenvalue, then compare |a| (mode phases are engine-fixed)
        for lam, amp, phi in zip(lams, amps, modes.T):
            j = int(np.argmin(np.abs(dec.lambdas - lam)))
            assert abs(dec.amplitudes[j]) == pytest.approx(abs(amp), rel=1e-8)
            # amplitude times mode must match the seeded product
            assert dec.amplitudes[j] * dec.modes[:, j] == pytest.approx(amp * phi, rel=1e-8, abs=0)


class TestReconstruct:
    def test_first_index_applies_no_powers(self):
        rng = np.random.default_rng(12)
        data, *_ = make_modal_data(rng, 30, n_pairs=1, n_real=1, n_snapshots=4)
        _, dec = full_decomposition(data)
        everything = range(len(dec.lambdas))
        got = kr.reconstruct(dec, everything, 1)
        direct = (dec.modes @ dec.amplitudes).real
        assert got == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(data[:, 0], rel=1e-10)

    def test_full_set_reproduces_each_snapshot(self):
        rng = np.random.default_rng(13)
        data, *_ = make_modal_data(rng, 40, n_pairs=2, n_real=1, n_snapshots=6)
        _, dec = full_decomposition(data)
        scale = np.linalg.norm(data)
        for i in range(1, 6):
            rec = kr.reconstruct(dec, range(5), i)
            assert np.linalg.norm(rec - data[:, i - 1]) <= 1e-8 * scale

    def test_imaginary_residue_negligible_for_closed_subsets(self):
        rng = np.random.default_rng(14)
        data, *_ = make_modal_data(rng, 40, n_pairs=2, n_real=1, n_snapshots=6)
        _, dec = full_decomposition(data)
        for group in conjugate_groups(dec.lambdas):
            coef = dec.amplitudes[group] * dec.lambdas[group] ** 2
            full = dec.modes[:, group] @ coef
            assert np.linalg.norm(full.imag) <= 1e-8 * max(np.linalg.norm(full.real), 1e-30)

    def test_guards(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((10, 4))
        _, dec = full_decomposition(data)
        with pytest.raises(IndexOutOfRange):
            kr.reconstruct(dec, [], 1)
        with pytest.raises(IndexOutOfRange):
            kr.reconstruct(dec, [0], 0)
        with pytest.raises(IndexOutOfRange):
            kr.reconstruct(dec, [99], 1)


class TestInvariants:
    def test_companion_eigenvalues_match_polynomial_roots(self):
        import mpmath
        rng = np.random.default_rng(16)
        for nt in range(1, 9):
            data = rng.standard_normal((12, nt + 1))
            m = matrix_from_array(data)
            fit = kr.fit_companion(m)
            dec = kr.eigendecompose(fit, m)
            coeffs = [mpmath.mpf(1)] + [-mpmath.mpf(c) for c in fit.coefficients[::-1]]
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
            roots = np.sort_complex(np.array([complex(r) for r in roots]))
            got = np.sort_complex(dec.lambdas)
            scale = max(np.max(np.abs(roots)), 1.0)
            assert np.max(np.abs(got - roots)) <= 1e-8 * scale

    def test_scalar_scaling_equivariance(self):
        rng = np.random.default_rng(17)
        data, *_ = make_modal_data(rng, 30, n_pairs=1, n_real=2, n_snapshots=5)
        _, dec1 = full_decomposition(data)
        _, dec4 = full_decomposition(4.0 * data)
        assert np.sort_complex(dec4.lambdas) == pytest.approx(
            np.sort_complex(dec1.lambdas), rel=1e-13)
        order1 = np.argsort(dec1.lambdas)
        order4 = np.argsort(dec4.lambdas)
        assert dec4.modes[:, order4] == pytest.approx(dec1.modes[:, order1], rel=1e-10)
        assert dec4.amplitudes[order4] == pytest.approx(4.0 * dec1.amplitudes[order1],
                                                        rel=1e-10)


class TestModesOnDemand:
    """decompose, selection and reconstruct form no Nx x m mode array.

    Peaks are tracemalloc peaks in payloads, the bytes of a 20 000-cell,
    41-snapshot matrix in the layout ``assemble`` and ``load`` give.
    What is left of decompose is the one Fortran copy of [V0 | u_N]
    that the bundled LAPACK factors (without that library, the copy
    ``np.linalg.qr`` makes with ``astype``; its LAPACK buffer is malloc'd
    outside tracemalloc's view), and of reconstruct one snapshot (1/41).
    """

    @pytest.fixture(scope="class")
    def matrix(self):
        rows = np.random.default_rng(31).standard_normal((41, 20000))
        return SnapshotMatrix(data=rows.T, nx=200, ny=100, dt=1.0, dx=1.0, dy=1.0,
                              field_tag=FieldTag.h)

    @pytest.fixture(scope="class")
    def decomposed(self, matrix):
        used, dec = kr.decompose(matrix)
        return used, dec, kr.select_leading_modes(used, dec, 0.5)

    def test_decompose(self, matrix):
        (used, dec), peak = traced_peak(lambda: kr.decompose(matrix))
        assert peak <= 1.25 * matrix.data.nbytes
        assert used.n_snapshots == 41 and dec.lambdas.shape == (40,)

    def test_select(self, decomposed):
        used, dec, _ = decomposed
        _, peak = traced_peak(lambda: kr.select_leading_modes(used, dec, 0.5))
        assert peak <= 0.25 * used.data.nbytes

    def test_coordinates_of_the_decomposed_view(self, decomposed):
        used, dec, _ = decomposed
        (t, b), peak = traced_peak(lambda: dec.coordinates(dec.v0))
        assert peak < 0.01 * used.data.nbytes
        assert t is dec.r and b is dec.mode_coords
        # an equal copy still gets the stored coordinates
        t, b = dec.coordinates(dec.v0.copy())
        assert t is dec.r and b is dec.mode_coords

    def test_reconstruct(self, decomposed):
        used, dec, model = decomposed
        _, peak = traced_peak(lambda: kr.reconstruct(dec, model.selected, 7))
        assert peak <= 0.1 * used.data.nbytes
        assert "modes" not in vars(dec)  # nothing above formed the modes

    def test_errors_of_a_foreign_matrix(self, matrix, decomposed):
        """One real QR of [V0 | X] by ``np.linalg.qr``: about four
        payloads of X, the stacked block and the working copy the QR
        makes of it; no mode matrix."""
        used, dec, model = decomposed
        rows = np.random.default_rng(32).standard_normal((41, 20000))
        foreign = replace(used, data=rows.T)
        err, peak = traced_peak(lambda: kr.relative_error(foreign, dec, model.selected))
        assert peak <= 4.5 * foreign.data[:, :-1].nbytes
        assert "modes" not in vars(dec)
        # the full-space formula, on a decomposition of its own
        _, other = kr.decompose(matrix)
        idx = list(model.selected)
        x = foreign.data[:, :-1]
        coef = other.amplitudes[idx, None] * other.lambdas[idx, None] ** np.arange(40)
        direct = np.linalg.norm(x - (other.modes[:, idx] @ coef).real) / np.linalg.norm(x)
        assert err == pytest.approx(direct, rel=1e-9)

    def test_modes_formed_once_when_read(self, matrix):
        _, dec = kr.decompose(matrix)
        modes = dec.modes
        assert dec.modes is modes and modes.shape == (20000, 40)
        idx = np.arange(0, 40, 3)
        direct = (modes[:, idx] @ (dec.amplitudes[idx] * dec.lambdas[idx] ** 6)).real
        got = kr.reconstruct(dec, idx, 7)
        assert np.max(np.abs(got - direct)) <= 1e-10 * np.max(np.abs(direct))


def window_matrix(rows, dt=0.5):
    """A snapshot matrix over a (nsnap, 40) row block, as ``load`` gives."""
    return SnapshotMatrix(data=rows.T, nx=8, ny=5, dt=dt, dx=1.0, dy=1.0,
                          field_tag=FieldTag.h)


# the arrays of a decomposition: a store holds all but the exponents,
# which a hit derives from the eigenvalues
DEC_ARRAYS = ("lambdas", "exponents", "amplitudes", "r", "mode_coords", "z")


def stored(matrix, path):
    """The (matrix, decomposition) of ``rom.reduced_model`` with the store
    at ``path``."""
    return kr.reduced_model(matrix, 1e-3, path)[:2]


class TestDecompositionStore:
    """reduced_model(matrix, epsilon, path) writes the decomposition and
    its selection curve once and loads them back while the snapshot bytes
    and dt are unchanged."""

    @pytest.fixture
    def rows(self):
        return np.random.default_rng(51).standard_normal((12, 40))

    @staticmethod
    def decompose_counting(matrix, path):
        """decompose with the store; also the number of companion fits."""
        with mock.patch.object(dmd, "fit_companion", wraps=dmd.fit_companion) as fit:
            result = stored(matrix, path)
        return result, fit.call_count

    @staticmethod
    def assert_same(dec, other):
        for name in DEC_ARRAYS:
            a, b = getattr(dec, name), getattr(other, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name

    def test_hit_restores_the_decomposition(self, tmp_path, rows):
        m, path = window_matrix(rows), tmp_path / "dmd_h.npz"
        (used, dec), fits = self.decompose_counting(m, path)
        assert fits == 1 and path.is_file()
        (again, hit), fits = self.decompose_counting(m, path)
        assert fits == 0
        assert again is m and hit.dt == m.dt
        self.assert_same(hit, dec)
        assert dmd._same_view(hit.v0, m.data[:, :-1])
        assert "modes" not in vars(hit)
        model, cold = (kr.select_leading_modes(m, d, 1e-3) for d in (hit, dec))
        assert model.selected == cold.selected
        assert np.array_equal(kr.reconstruct(hit, model.selected, 5),
                              kr.reconstruct(dec, cold.selected, 5))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dmd_h.npz"]

    def test_key_reads_the_bytes_not_the_array(self, tmp_path, rows):
        path = tmp_path / "dmd_h.npz"
        stored(window_matrix(rows), path)
        # an equal copy, and the same values in a C-ordered (Nx, nsnap) array
        for data in (rows.T.copy(order="F"), np.ascontiguousarray(rows.T)):
            _, fits = self.decompose_counting(
                SnapshotMatrix(data=data, nx=8, ny=5, dt=0.5, dx=1.0, dy=1.0,
                               field_tag=FieldTag.h), path)
            assert fits == 0

    @pytest.mark.parametrize("change", ["word", "dt", "shape"])
    def test_changed_input_recomputes(self, tmp_path, rows, change):
        path = tmp_path / "dmd_h.npz"
        stored(window_matrix(rows), path)
        if change == "word":
            rows = rows.copy()
            rows.view(np.uint64)[7, 13] ^= 1  # the last bit of one value
            m = window_matrix(rows)
        elif change == "dt":
            m = window_matrix(rows, dt=np.nextafter(0.5, 1.0))
        else:  # the same bytes as 80 cells and 6 snapshots
            m = SnapshotMatrix(data=rows.reshape(6, 80).T, nx=8, ny=10, dt=0.5,
                               dx=1.0, dy=1.0, field_tag=FieldTag.h)
        (used, dec), fits = self.decompose_counting(m, path)
        assert fits == 1
        cold_used, cold = kr.decompose(m)
        assert used.n_snapshots == cold_used.n_snapshots
        self.assert_same(dec, cold)
        _, fits = self.decompose_counting(m, path)
        assert fits == 0  # the store now holds the new decomposition

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_store_of_an_older_format_is_a_miss(self, tmp_path, rows, version):
        # format 1 solved the fit's triangle another way: its eigenvalues
        # differ in their last bits from a cold run of this one; format 2
        # pinned each phase on the largest entry of the mode, not of z;
        # format 3, an np.savez zip of the decomposition, kept no selection
        # curve; format 4 took its eigenvalues from np.linalg.eig, not from
        # the roots of the companion polynomial; format 5 took the exponent
        # of a spectrum with no conjugate pair on the real line, nan for a
        # negative eigenvalue; format 6 stored the exponents, weights and
        # admission order, which a load could not check against the
        # eigenvalues.  Each is written in the layout of this format, under
        # its own number, and format 3 also as the zip it was.
        m, path = window_matrix(rows), tmp_path / "dmd_h.npz"
        _, dec = stored(m, path)
        raw = bytearray(path.read_bytes())
        magic, _, key_len, n = rom._STORE_HEAD.unpack_from(raw)
        table = rom._STORE_TABLE_END
        key = raw[table:table + key_len].replace(f" {rom._STORE_VERSION} ".encode(),
                                                  f" {version} ".encode(), 1)
        raw[:rom._STORE_HEAD.size] = rom._STORE_HEAD.pack(magic, version, key_len, n)
        raw[table:table + key_len] = key
        path.write_bytes(bytes(raw))
        (_, again), fits = self.decompose_counting(m, path)
        assert fits == 1
        self.assert_same(again, dec)
        if version == 3:
            np.savez(path, key=np.array(key.decode()), n_snapshots=np.array(m.n_snapshots),
                     **{name: getattr(dec, name) for name in DEC_ARRAYS})
            (_, again), fits = self.decompose_counting(m, path)
            assert fits == 1
            self.assert_same(again, dec)
        assert path.read_bytes()[:8] == rom._STORE_MAGIC  # rewritten in this format

    def test_truncated_window_is_restored(self, tmp_path):
        # 17 snapshots repeating with period 5: decomposed as the first 6
        base = np.random.default_rng(7).standard_normal((5, 40))
        m, path = window_matrix(base[np.arange(17) % 5]), tmp_path / "dmd_h.npz"
        (used, dec), fits = self.decompose_counting(m, path)
        assert fits == 2 and used.n_snapshots == 6
        (again, hit), fits = self.decompose_counting(m, path)
        assert fits == 0 and again.n_snapshots == 6
        assert np.shares_memory(again.data, m.data)
        assert dmd._same_view(hit.v0, m.data[:, :5])
        self.assert_same(hit, dec)

    def test_failed_decomposition_writes_nothing(self, tmp_path):
        path = tmp_path / "dmd_h.npz"
        with pytest.raises(ZeroNormData):
            stored(window_matrix(np.zeros((6, 40))), path)
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_store_is_skipped(self, tmp_path, rows):
        path = tmp_path / "no such directory" / "dmd_h.npz"
        used, dec = stored(window_matrix(rows), path)
        assert dec.amplitudes is not None
        assert list(tmp_path.iterdir()) == []

    def test_digest_copies_no_payload(self, rows):
        big = np.random.default_rng(52).standard_normal((41, 20000))
        for data in (big.T, np.ascontiguousarray(big.T)):
            m = SnapshotMatrix(data=data, nx=200, ny=100, dt=1.0, dx=1.0, dy=1.0,
                               field_tag=FieldTag.h)
            _, peak = traced_peak(lambda: rom._store_key(m))
            assert peak < 0.05 * data.nbytes

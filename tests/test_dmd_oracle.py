"""Oracle and property tests for the R-only companion fit.

The functions prefixed ``old_`` are the explicit-Q fit that the R-only
QR of [V0 | u_N] replaced, copied verbatim apart from their names and
docstrings: LAPACK forms Q, the fit reads Q^T u_N from it, and the
residual is a second pass over V0.  ``old_compute_amplitudes`` is the
amplitude solve of that version, which called the same ``_qr_solve``;
it returns a copy of the frozen decomposition with its amplitudes
instead of storing them on it.  ``old_fit_companion`` no longer hands
its companion matrix to ``CompanionFit``, which forms its own when it
is read; it checks that the two are equal.
Tolerances on the desk channel: coefficients 1e-9 of the largest one,
residual norm 1e-9 relative, R 1e-12 of max|R|, eigenvalues 1e-9 of
max|lambda|, selection exact, achieved error 1e-9 relative.  The two
fits round differently, so ``eig`` may list the spectrum in another
order: eigenvalues are matched to their nearest counterpart, and a
selection is compared as the eigenvalues it selects.  (Coefficients a
thousandth of the largest move by up to 2e-8 of their own size; both
fits are rounding-level.)

``old_coordinate_amplitudes`` is the public ``compute_amplitudes``
that ``eigendecompose`` absorbed, verbatim apart from its name, its
docstring and the line that stored the amplitudes on the decomposition
(which is now frozen).  The amplitudes ``eigendecompose`` returns must equal
its result bit for bit.

``old_form_modes`` is the mode formation of ``eigendecompose`` before
the modes were formed on demand, verbatim but for its eigenpairs, which
it takes from the library's solver (``dmd._companion_eig``) rather than
from ``np.linalg.eig``, so both formations start from one spectrum in
one order: the complex product V0 @ z, its column norms and the phase
pin on the largest entry of the mode.  The phase is now pinned on the largest entry of the eigenvector
z_j instead, so each new column (and its coordinates) is compared after
the rotation that puts its entry in the old lead row on the positive
real axis.  Tolerances on desk h/u/v and on the seeded spectra: modes
and mode coordinates (both unit columns) 1e-10 entrywise, and the same
lead entry in every column.  The norms now come from R z_j: for a mode
whose image is 5e-8 of ||V0|| (desk h), both formations round its norm
and phase differently by up to 2e-11, and neither is the more exact
one.

The solver oracle checks ``dmd._companion_eig`` itself.  Against
``np.linalg.eig`` on desk h/u/v and on the seeded spectra, its
eigenvalues match one to one within 1e-11 of max|lambda|, 1e-10 on desk
u, where eig itself is off by about 2e-11.  Against roots refined by
Newton's method in 40-digit ``mpmath``, with eigenvectors from the same
backward recursion, its eigenvalues are within 1e-12 of max|lambda| and
its modes within 1e-10 entrywise after the lead-row rotation.  The desk
fields never reach ``np.linalg.eig`` and never form the companion
matrix; a zero fit target and the repeated-root windows do reach eig,
and take its eigenpairs bit for bit, each eigenvector divided by its
largest-magnitude entry.  On both paths the solver keeps one layout
(``assert_layout``), which ``conjugate_groups`` reads; on the desk
fields and the seeded spectra its groups are those of the tolerance
search it replaced (``old_conjugate_groups`` of ``test_rom_oracle``).

The property tests draw seeded modal spectra (``make_modal_data`` plus
noise below the selection threshold) and check invariants of the whole
decomposition and selection.  Windows whose companion spectrum has
repeated roots either give a model or end in a rank-deficient mode
matrix; a zero fit target makes the companion matrix nilpotent and the
mode matrix rank 1.
"""

import contextlib
import dataclasses
import io
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import koopmanrom as kr
from koopmanrom import _lapack
from koopmanrom.cli import main
from koopmanrom.dmd import (CompanionFit, _aberth, _companion_eig, _conjugate_layout,
                            _qr_solve, conjugate_groups)
from koopmanrom.errors import EigenFailure, RankDeficient

from conftest import (lead_rotation, make_modal_data, matrix_from_array, normwise_dev,
                      rel_dev, shifted_pair)
from test_rom_oracle import old_conjugate_groups

CONFIGS = Path(__file__).parents[1] / "configs"
EPSILON = 1e-3
FIELDS = ("h", "u", "v")
_RANK_RTOL = 1e-12
SPECTRA = settings(max_examples=40, deadline=None, database=None, derandomize=True)


# --- explicit-Q fit, verbatim ---

def old_qr_solve(basis, target, what):
    q, r = np.linalg.qr(basis)
    sv = np.linalg.svd(r, compute_uv=False)
    rank = int(np.sum(sv > _RANK_RTOL * sv[0])) if sv.size else 0
    if rank < basis.shape[1]:
        raise RankDeficient(rank, basis.shape[1], what=what)
    return scipy.linalg.solve_triangular(r, q.conj().T @ target), r


def old_fit_companion(pair):
    v0 = pair.v0
    if v0.shape[0] < v0.shape[1]:
        raise ValueError(
            f"V0 is underdetermined: {v0.shape[0]} rows < {v0.shape[1]} columns")
    u_last = pair.v1[:, -1]
    c, r = old_qr_solve(v0, u_last, what="V0")
    nt = v0.shape[1]
    companion = np.zeros((nt, nt))
    if nt > 1:
        companion[np.arange(1, nt), np.arange(nt - 1)] = 1.0
    companion[:, -1] = c
    residual = float(np.linalg.norm(u_last - v0 @ c))
    fit = CompanionFit(coefficients=c, residual_norm=residual, r=r)
    assert np.array_equal(fit.companion, companion)
    return fit


def old_compute_amplitudes(dec, matrix):
    t, b = dec.coordinates(matrix.data[:, :-1])
    a, _ = old_qr_solve(b, t[:, 0].astype(complex), what="mode matrix")
    pairs = np.array([g for g in conjugate_groups(dec.lambdas) if len(g) == 2],
                     dtype=int).reshape(-1, 2)
    exact = np.all(b[:, pairs[:, 1]] == b[:, pairs[:, 0]].conj(), axis=0)
    j, k = pairs[exact].T
    a[j] = 0.5 * (a[j] + a[k].conj())
    a[k] = a[j].conj()
    return dataclasses.replace(dec, amplitudes=a)


# --- the amplitude solve before eigendecompose returned it, verbatim ---

def old_coordinate_amplitudes(dec, matrix):
    t, b = dec.coordinates(matrix.data[:, :-1])
    a, _, _ = _qr_solve(np.column_stack([b, t[:, 0]]), what="mode matrix")
    pairs = np.array([g for g in conjugate_groups(dec.lambdas) if len(g) == 2],
                     dtype=int).reshape(-1, 2)
    exact = np.all(b[:, pairs[:, 1]] == b[:, pairs[:, 0]].conj(), axis=0)
    j, k = pairs[exact].T
    a[j] = 0.5 * (a[j] + a[k].conj())
    a[k] = a[j].conj()
    return a


@pytest.mark.parametrize("name", FIELDS)
def test_amplitudes_match_compute_amplitudes(desk_data, name):
    used, dec = kr.decompose(desk_data[name])
    assert np.array_equal(dec.amplitudes, old_coordinate_amplitudes(dec, used))


# --- mode formation before the modes were formed on demand, verbatim ---

def old_form_modes(fit, pair):
    """The modes and mode coordinates ``eigendecompose`` returned."""
    lambdas, z = _companion_eig(fit)
    modes = pair.v0 @ z
    norms = np.linalg.norm(modes, axis=0)
    if np.any(norms == 0.0):
        raise EigenFailure("eigenvector mapped to a zero mode")
    modes = modes / norms
    lead = modes[np.argmax(np.abs(modes), axis=0), np.arange(modes.shape[1])]
    phase = np.abs(lead) / lead
    modes = modes * phase
    return modes, (fit.r @ z) / norms * phase


def assert_modes_match_formation(matrix):
    fit = kr.fit_companion(matrix)
    dec = kr.eigendecompose(fit, matrix)
    ref, ref_coords = old_form_modes(fit, shifted_pair(matrix))
    modes = dec.modes
    rot = lead_rotation(modes, ref)
    assert np.max(np.abs(modes * rot - ref)) <= 1e-10
    assert np.max(np.abs(dec.mode_coords * rot - ref_coords)) <= 1e-10
    lead = np.argmax(np.abs(modes), axis=0)
    assert np.array_equal(lead, np.argmax(np.abs(ref), axis=0))
    top = dec.z[np.argmax(np.abs(dec.z), axis=0), np.arange(modes.shape[1])]
    assert np.max(np.abs(top.imag)) <= 1e-12
    assert np.all(top.real > 0.0)
    # eig lists a conjugate pair as adjacent columns, positive imaginary part first
    j = np.flatnonzero(dec.lambdas.imag > 0)
    assert np.array_equal(dec.lambdas[j + 1], dec.lambdas[j].conj())
    for arr in (modes, dec.z, dec.mode_coords):
        assert np.array_equal(arr[:, j + 1], arr[:, j].conj())


@pytest.mark.parametrize("name", FIELDS)
def test_modes_match_formation(desk_data, name):
    assert_modes_match_formation(desk_data[name])


@pytest.fixture(scope="module")
def fits(desk_data):
    """Per field: the matrix, the R-only and explicit-Q fits, and the
    decomposition and selection each one leads to."""
    out = {}
    for name in FIELDS:
        matrix = desk_data[name]
        new_fit, old_fit = kr.fit_companion(matrix), old_fit_companion(shifted_pair(matrix))
        new_dec = kr.eigendecompose(new_fit, matrix)
        old_dec = old_compute_amplitudes(kr.eigendecompose(old_fit, matrix), matrix)
        out[name] = (matrix, new_fit, old_fit,
                     kr.select_leading_modes(matrix, new_dec, EPSILON),
                     kr.select_leading_modes(matrix, old_dec, EPSILON),
                     new_dec, old_dec)
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_fit_matches_explicit_q(fits, name):
    _, new, old, *_ = fits[name]
    assert normwise_dev(new.coefficients, old.coefficients) <= 1e-9
    assert rel_dev(new.residual_norm, old.residual_norm) <= 1e-9
    assert new.r.shape == old.r.shape
    assert normwise_dev(new.r, old.r) <= 1e-12


@pytest.mark.parametrize("name", FIELDS)
def test_spectrum_and_selection_match_explicit_q(fits, name):
    *_, new_model, old_model, new_dec, old_dec = fits[name]
    new_lam, old_lam = new_dec.lambdas, old_dec.lambdas
    assert new_lam.shape == old_lam.shape
    dist = np.abs(new_lam[:, None] - old_lam[None, :])
    tol = 1e-9 * np.max(np.abs(old_lam))
    assert np.max(dist.min(axis=0)) <= tol and np.max(dist.min(axis=1)) <= tol
    assert new_model.n_dmd == old_model.n_dmd
    new_sel = np.sort_complex(new_lam[list(new_model.selected)])
    old_sel = np.sort_complex(old_lam[list(old_model.selected)])
    assert np.max(np.abs(new_sel - old_sel)) <= tol
    assert new_model.converged and old_model.converged
    assert rel_dev(new_model.achieved_error, old_model.achieved_error) <= 1e-9


def test_square_v0_has_zero_residual():
    rng = np.random.default_rng(20)
    fit = kr.fit_companion(matrix_from_array(rng.standard_normal((6, 7))))
    assert fit.residual_norm == 0.0
    assert fit.r.shape == (6, 6)


# --- properties on seeded modal spectra ---

@st.composite
def modal_matrices(draw):
    """A noisy modal snapshot matrix: 1-3 conjugate pairs, 0-2 real modes,
    up to 14 snapshots of 30 cells, noise 1e-6 of the modal signal."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_pairs = draw(st.integers(1, 3))
    n_real = draw(st.integers(0, 2))
    n_modes = 2 * n_pairs + n_real
    n_snapshots = draw(st.integers(n_modes + 2, 14))
    rng = np.random.default_rng(seed)
    data, *_ = make_modal_data(rng, 30, n_pairs, n_real, n_snapshots)
    data = data + 1e-6 * rng.standard_normal(data.shape)
    return matrix_from_array(data)


@SPECTRA
@given(modal_matrices(), st.sampled_from([1e-1, 1e-3, 1e-5]))
def test_selection_closed_under_conjugation(matrix, epsilon):
    used, dec = kr.decompose(matrix)
    model = kr.select_leading_modes(used, dec, epsilon)
    lam = dec.lambdas[list(model.selected)]
    # eig of the real companion matrix returns exactly conjugate pairs
    assert np.array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))


@SPECTRA
@given(modal_matrices())
def test_n_dmd_monotone_in_epsilon(matrix):
    used, dec = kr.decompose(matrix)
    counts = [kr.select_leading_modes(used, dec, eps).n_dmd
              for eps in (0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)]
    assert counts == sorted(counts)


@SPECTRA
@given(modal_matrices(), st.integers(-20, 20))
def test_power_of_two_scaling_is_exact(matrix, power):
    """Scaling by 2^power commutes with every rounding of the Householder
    QR, the triangular solve and the norms (nothing under- or
    overflows), so the spectrum and the selection are bit-identical."""
    scaled = dataclasses.replace(matrix, data=np.ldexp(matrix.data, power))
    used, dec = kr.decompose(matrix)
    used2, dec2 = kr.decompose(scaled)
    assert used2.n_snapshots == used.n_snapshots
    assert np.array_equal(dec2.lambdas, dec.lambdas)
    model = kr.select_leading_modes(used, dec, EPSILON)
    model2 = kr.select_leading_modes(used2, dec2, EPSILON)
    assert model2.selected == model.selected


@SPECTRA
@given(modal_matrices())
def test_modes_match_formation_on_spectra(matrix):
    assert_modes_match_formation(matrix)


@SPECTRA
@given(modal_matrices())
def test_amplitudes_match_compute_amplitudes_on_spectra(matrix):
    used, dec = kr.decompose(matrix)
    assert np.array_equal(dec.amplitudes, old_coordinate_amplitudes(dec, used))


# --- companion spectra with repeated roots ---

@st.composite
def repeated_root_windows(draw):
    """A window of 30 random cells whose fit target is V0 c exactly, for
    c the coefficients of a polynomial with repeated roots: 1-3 distinct
    roots (conjugate pairs, nonzero reals or zero) of multiplicity 1-3,
    the first at least 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roots = []
    for k in range(draw(st.integers(1, 3))):
        mult = draw(st.integers(2 if k == 0 else 1, 3))
        kind = draw(st.sampled_from(["pair", "real", "zero"]))
        if kind == "pair":
            lam = rng.uniform(0.5, 1.05) * np.exp(1j * rng.uniform(0.15, np.pi - 0.15))
            roots += [lam, np.conj(lam)] * mult
        else:
            roots += [rng.uniform(-1.05, 1.05) if kind == "real" else 0.0] * mult
    c = -np.real(np.poly(roots))[1:][::-1]
    v0 = rng.standard_normal((30, len(roots)))
    return matrix_from_array(np.column_stack([v0, v0 @ c]))


def assert_layout(lambdas, z):
    """The layout of ``_companion_eig``: each conjugate pair in adjacent
    columns, positive imaginary part first, exactly conjugate, and each
    column's largest-magnitude entry exactly 1; ``conjugate_groups``
    lists those pairs and every other index alone, in order."""
    j = np.flatnonzero(lambdas.imag > 0)
    assert np.array_equal(np.flatnonzero(lambdas.imag < 0), j + 1)
    assert np.array_equal(lambdas[j + 1], lambdas[j].conj())
    assert np.array_equal(z[:, j + 1], z[:, j].conj())
    assert np.all(z[np.argmax(np.abs(z), axis=0), np.arange(z.shape[1])] == 1.0)
    groups = conjugate_groups(lambdas)
    assert [k for group in groups for k in group] == list(range(lambdas.shape[0]))
    assert [group[0] for group in groups if len(group) == 2] == j.tolist()


def assert_takes_eig(matrix):
    """The eigenpairs of ``matrix``'s companion are those of
    ``np.linalg.eig``, each eigenvector divided by its largest-magnitude
    entry, bit for bit, so its decomposition is that path's."""
    fit = kr.fit_companion(matrix)
    lambdas, z = _companion_eig(fit)
    ref_lambdas, ref_z = np.linalg.eig(fit.companion)
    lead = np.argmax(np.abs(ref_z), axis=0), np.arange(ref_z.shape[1])
    ref_z /= ref_z[lead]
    ref_z[lead] = 1.0
    assert lambdas.dtype == ref_lambdas.dtype and z.dtype == ref_z.dtype
    assert np.array_equal(lambdas, ref_lambdas) and np.array_equal(z, ref_z)
    assert_layout(lambdas, z)


@SPECTRA
@given(repeated_root_windows())
def test_repeated_roots_give_a_model_or_a_deficient_mode_matrix(matrix):
    assert_takes_eig(matrix)
    try:
        used, dec = kr.decompose(matrix)
    except RankDeficient as exc:
        assert str(exc) == (f"mode matrix has numerical rank {exc.rank} < "
                            f"{matrix.n_snapshots - 1} columns")
        return
    assert used.n_snapshots == matrix.n_snapshots  # V0 is random, of full rank
    model = kr.select_leading_modes(used, dec, 0.5)
    assert 1 <= model.n_dmd and np.isfinite(model.achieved_error)
    assert np.linalg.norm(dec.modes, axis=0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("nt", [2, 3, 5, 11])
def test_zero_fit_target_gives_rank_one_mode_matrix(nt):
    """c = 0: the companion matrix is the nilpotent shift, every
    eigenvector is close to the last unit vector, and every mode to the
    last snapshot of V0."""
    data = np.random.default_rng(nt).standard_normal((40, nt + 1))
    data[:, -1] = 0.0
    assert_takes_eig(matrix_from_array(data))
    with pytest.raises(RankDeficient) as info:
        kr.decompose(matrix_from_array(data))
    assert (info.value.rank, info.value.n_columns) == (1, nt)
    assert str(info.value) == f"mode matrix has numerical rank 1 < {nt} columns"


# --- the companion solver against np.linalg.eig and extended precision ---

EIG_TOL = {"h": 1e-11, "u": 1e-10, "v": 1e-11}


def matched_gap(lambdas, ref):
    """Largest distance between ``lambdas`` and ``ref`` matched one to
    one (a minimum-cost assignment)."""
    dist = np.abs(lambdas[:, None] - ref[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


@pytest.mark.parametrize("name", FIELDS)
def test_solver_matches_eig(desk_data, name):
    fit = kr.fit_companion(desk_data[name])
    lambdas, _ = _companion_eig(fit)
    ref = np.linalg.eigvals(fit.companion)
    assert matched_gap(lambdas, ref) <= EIG_TOL[name] * np.max(np.abs(ref))


@SPECTRA
@given(modal_matrices())
def test_solver_matches_eig_on_spectra(matrix):
    fit = kr.fit_companion(matrix)
    lambdas, _ = _companion_eig(fit)
    ref = np.linalg.eigvals(fit.companion)
    assert matched_gap(lambdas, ref) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("nt, c0", [(12, 0.5), (40, 2.0), (7, -1.3)])
def test_solver_on_zero_interior_coefficients(nt, c0):
    """c = (c0, 0, ..., 0), the polynomial x^Nt - c0: the Newton polygon
    skips every zero coefficient, and the Aberth path takes the roots."""
    c = np.zeros(nt)
    c[0] = c0
    found = _aberth(c)
    assert found is not None and _conjugate_layout(c, *found) is not None
    fit = CompanionFit(coefficients=c, residual_norm=0.0, r=np.eye(nt))
    lambdas, z = _companion_eig(fit)
    ref = np.linalg.eigvals(fit.companion)
    assert matched_gap(lambdas, ref) <= 1e-13 * np.max(np.abs(ref))
    assert_layout(lambdas, z)


def refined(c, lambdas, dps=40):
    """The roots of x^Nt - sum_k c_k x^k reached from ``lambdas`` by
    Newton's method in ``dps``-digit arithmetic, and their eigenvectors
    from the backward recursion z[Nt-1] = 1, z[k-1] = x z[k] - c_k in
    the same arithmetic, both rounded to complex128."""
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(1)] + [-mpmath.mpf(float(ck)) for ck in c[::-1]]
        tiny = mpmath.mpf(10) ** (5 - dps)
        roots, vectors = [], []
        for lam in lambdas:
            x = mpmath.mpc(complex(lam))
            for _ in range(8):
                p, dp = mpmath.polyval(coeffs, x, derivative=True)
                step = p / dp
                x -= step
                if abs(step) <= tiny * max(abs(x), 1):
                    break
            else:
                raise AssertionError(f"Newton's method did not settle from {lam}")
            z = [mpmath.mpc(1)]
            for ck in c[:0:-1]:
                z.append(x * z[-1] - mpmath.mpf(float(ck)))
            roots.append(complex(x))
            vectors.append([complex(v) for v in z[::-1]])
    return np.array(roots), np.array(vectors).T


@pytest.mark.parametrize("name", FIELDS)
def test_solver_matches_extended_precision(desk_data, name):
    matrix = desk_data[name]
    used, dec = kr.decompose(matrix)
    assert used is matrix
    roots, z = refined(kr.fit_companion(matrix).coefficients, dec.lambdas)
    assert np.max(np.abs(dec.lambdas - roots)) <= 1e-12 * np.max(np.abs(roots))
    ref = matrix.v0 @ z
    ref /= np.linalg.norm(ref, axis=0)
    ref *= lead_rotation(ref, ref)
    modes = dec.modes * lead_rotation(dec.modes, ref)
    assert np.max(np.abs(modes - ref)) <= 1e-10


def test_desk_fields_never_call_eig(desk_data):
    """No desk field reaches ``np.linalg.eig``, and no desk fit forms its
    companion matrix."""
    with mock.patch.object(np.linalg, "eig", side_effect=AssertionError("eig called")):
        for name in FIELDS:
            fit = kr.fit_companion(desk_data[name])
            kr.eigendecompose(fit, desk_data[name])
            assert "companion" not in fit.__dict__


@pytest.mark.skipif(_lapack.load() is None, reason="numpy bundles no scipy-openblas64 here")
def test_desk_commands_never_call_qr_svd_or_eig(tmp_path):
    """With the bundled LAPACK, desk ``rom`` and the queries after it factor
    every block through ``geqrf``, pass every rank gate on the certificate,
    and hand ``coordinates`` only the decomposed view: none of them reaches
    ``np.linalg.qr``, ``np.linalg.svd`` or ``np.linalg.eig``."""
    cfg, data = str(CONFIGS / "desk_channel.cfg"), str(tmp_path / "data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", cfg, "--out", data]) == 0
    runs = [["rom"], *(["reconstruct", "--field", "h", "--index", i] for i in ("7", "50")),
            *(["vorticity", "--index", i] for i in ("7", "101"))]
    with contextlib.ExitStack() as stack:
        for name in ("qr", "svd", "eig"):
            stack.enter_context(mock.patch.object(
                np.linalg, name, side_effect=AssertionError(f"np.linalg.{name} called")))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        for k, argv in enumerate(runs):
            assert main([*argv, "--config", cfg, "--data", data,
                         "--out", str(tmp_path / str(k))]) == 0, argv


# --- the layout of the Aberth path against the tolerance search ---

def assert_groups_match_search(matrix):
    """On the Aberth path, the groups read from the layout are those of
    the tolerance search."""
    with mock.patch.object(np.linalg, "eig", side_effect=AssertionError("eig called")):
        lambdas, z = _companion_eig(kr.fit_companion(matrix))
    assert_layout(lambdas, z)
    assert conjugate_groups(lambdas) == old_conjugate_groups(lambdas)


@pytest.mark.parametrize("name", FIELDS)
def test_groups_match_tolerance_search(desk_data, name):
    assert_groups_match_search(desk_data[name])


@SPECTRA
@given(modal_matrices())
def test_groups_match_tolerance_search_on_spectra(matrix):
    assert_groups_match_search(matrix)

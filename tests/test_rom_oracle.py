"""Oracle: the snapshot-coordinate ROM against the full-space formulas.

The functions prefixed ``old_`` are the full-space implementations that
the coordinate path replaced, copied verbatim apart from their names,
most docstrings, the missing-amplitude guards and the weights, which
``old_mode_weights`` returns as the array the list of ``ModeWeight``
records held (that record is gone): every reconstruction
is an Nx x Nt complex product, and the amplitudes are a QR solve
against the Nx x m mode matrix, and ``reconstruct`` reads the formed
modes.  The old modes pin each phase on the largest entry of the mode,
the new ones on the largest entry of its companion eigenvector, so new
modes are compared after the rotation that puts their entry in the old
lead row on the positive real axis, and new amplitudes divided by that
same phase.  Tolerances: selection exact, achieved error 1e-9 relative,
per-time errors 1e-6 relative entry by entry, amplitudes and weights
1e-9 relative to the largest one, modes 1e-8 absolute, reconstructed
snapshots 1e-10 of their largest entry.  (Amplitudes a millionth of the largest move
by up to 1e-7 of their own size between the two solves: both are
rounding, at a mode-matrix condition number near 100.)  A decomposition
is frozen and has no hand-built form, so ``old_eigendecompose`` returns
a namespace of the same fields, on which ``old_compute_amplitudes``
stores the amplitudes as it did.  ``old_eigendecompose`` takes its
eigenpairs from the library's solver (``dmd._companion_eig``), not from
``np.linalg.eig``, so both paths form modes, amplitudes and selections
from one spectrum listed in one order; the solver itself is checked in
``test_dmd_oracle``.

``old_residuals`` is the coordinate residual kernel before it applied
each mode as one real rank-2 product: two rank-one BLAS updates per
mode, also verbatim.  ``rank2_residuals`` is that rank-2 kernel, one
product per mode, before it applied each conjugate group as one
product, verbatim apart from its name and the module prefix of
``rom._vandermonde``.  Against either, on the same
decompositions, the selection is identical, the achieved error within
1e-13 relative and the per-time errors within 1e-11 relative entry by
entry (measured on desk h/u/v: 1.2e-15 and 8.4e-13 against the first,
5.6e-16 and 5.0e-13 against the second).
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dger

import koopmanrom as kr
from koopmanrom import dmd, rom
from koopmanrom.errors import EigenFailure, RankDeficient, ZeroNormData
from koopmanrom.rom import RomModel

from conftest import (lead_rotation, make_modal_data, matrix_from_array, normwise_dev,
                      rel_dev, shifted_pair)

EPSILON = 1e-3
FIELDS = ("h", "u", "v")
_RANK_RTOL = 1e-12


# --- full-space formulas, verbatim ---

def old_reconstruct(dec, subset, i):
    idx = np.asarray(list(subset), dtype=int)
    coef = dec.amplitudes[idx] * dec.lambdas[idx] ** (i - 1)
    return (dec.modes[:, idx] @ coef).real


def old_qr_solve(basis, target, what):
    """Least-squares solve via economic QR with a hard rank gate."""
    q, r = np.linalg.qr(basis)
    sv = np.linalg.svd(r, compute_uv=False)
    rank = int(np.sum(sv > _RANK_RTOL * sv[0])) if sv.size else 0
    if rank < basis.shape[1]:
        raise RankDeficient(rank, basis.shape[1], what=what)
    return scipy.linalg.solve_triangular(r, q.conj().T @ target)


def old_eigendecompose(fit, pair, dt):
    lambdas, z = dmd._companion_eig(fit)
    modes = pair.v0 @ z
    norms = np.linalg.norm(modes, axis=0)
    if np.any(norms == 0.0):
        raise EigenFailure("eigenvector mapped to a zero mode")
    modes = modes / norms
    lead = modes[np.argmax(np.abs(modes), axis=0), np.arange(modes.shape[1])]
    modes = modes * (np.abs(lead) / lead)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponents = np.log(lambdas) / dt
    return SimpleNamespace(lambdas=lambdas, exponents=exponents, modes=modes, dt=dt)


def old_compute_amplitudes(dec, matrix):
    a = old_qr_solve(dec.modes, matrix.data[:, 0].astype(complex), what="mode matrix")
    dec.amplitudes = a
    return a


def old_conjugate_groups(lambdas, rtol=1e-10):
    n = lambdas.shape[0]
    used = np.zeros(n, dtype=bool)
    groups = []
    for j in range(n):
        if used[j]:
            continue
        lam = lambdas[j]
        scale = max(abs(lam), 1.0)
        if abs(lam.imag) <= rtol * scale:
            groups.append([j])
            used[j] = True
            continue
        partner = -1
        best = rtol * scale
        for k in range(n):
            if k == j or used[k]:
                continue
            d = abs(lambdas[k] - np.conj(lam))
            if d <= best:
                partner = k
                best = d
        if partner >= 0:
            groups.append([j, partner])
            used[j] = True
            used[partner] = True
        else:
            groups.append([j])
            used[j] = True
    return groups


def old_mode_weights(dec, n_steps, dt):
    powers = np.abs(dec.lambdas)[None, :] ** np.arange(n_steps)[:, None]
    return dt * (np.abs(dec.amplitudes)[None, :] * powers).sum(axis=0)


def old_reconstruction_span(matrix):
    return matrix.data[:, :-1]


def old_vandermonde(lambdas, n_steps):
    return lambdas[:, None] ** np.arange(n_steps)[None, :]


def old_relative_error(matrix, dec, subset):
    target = old_reconstruction_span(matrix)
    ref = np.linalg.norm(target)
    if ref == 0.0:
        raise ZeroNormData("reference snapshots have zero norm")
    idx = np.asarray(list(subset), dtype=int)
    vand = old_vandermonde(dec.lambdas[idx], target.shape[1])
    rec = (dec.modes[:, idx] @ (dec.amplitudes[idx, None] * vand)).real
    return float(np.linalg.norm(target - rec) / ref)


def old_per_time_errors(matrix, dec, subset):
    target = old_reconstruction_span(matrix)
    idx = np.asarray(list(subset), dtype=int)
    vand = old_vandermonde(dec.lambdas[idx], target.shape[1])
    rec = (dec.modes[:, idx] @ (dec.amplitudes[idx, None] * vand)).real
    num = np.linalg.norm(target - rec, axis=0)
    den = np.linalg.norm(target, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / den, np.inf)
    return out


def old_selection_order(dec, weights):
    groups = old_conjugate_groups(dec.lambdas)
    freq = np.abs(dec.exponents.imag)

    def key(group):
        j = min(group, key=lambda k: (freq[k], k))
        return (-weights[group[0]], freq[j], j)

    return sorted(groups, key=key)


def old_select_leading_modes(matrix, dec, epsilon):
    weights = old_mode_weights(dec, matrix.n_snapshots - 1, dec.dt)
    order = old_selection_order(dec, weights)

    target = old_reconstruction_span(matrix)
    ref = np.linalg.norm(target)
    if ref == 0.0:
        raise ZeroNormData("reference snapshots have zero norm")
    n_steps = target.shape[1]

    selected = []
    acc = np.zeros(target.shape, dtype=complex)
    chosen = None
    for group in order:
        idx = np.asarray(group, dtype=int)
        vand = old_vandermonde(dec.lambdas[idx], n_steps)
        acc = acc + dec.modes[:, idx] @ (dec.amplitudes[idx, None] * vand)
        selected.extend(group)
        if np.linalg.norm(target - acc.real) / ref <= epsilon:
            # confirm with the batch evaluation the error op reports
            achieved = old_relative_error(matrix, dec, selected)
            if achieved <= epsilon:
                chosen = (list(selected), achieved, True)
                break
    if chosen is None:
        achieved = old_relative_error(matrix, dec, selected)
        chosen = (list(selected), achieved, False)

    sel, achieved, converged = chosen
    sel_arr = np.asarray(sel, dtype=int)
    return RomModel(
        selected=tuple(sel),
        lambdas=dec.lambdas[sel_arr],
        amplitudes=dec.amplitudes[sel_arr],
        n_dmd=len(sel),
        achieved_error=achieved,
        epsilon=epsilon,
        full_rank=dec.lambdas.shape[0],
        converged=converged,
    )


def old_residuals(t, b, dec, groups):
    idx = np.asarray([j for group in groups for j in group], dtype=int)
    coef = dec.amplitudes[idx, None] * old_vandermonde(dec.lambdas[idx], t.shape[1])
    b_sel = np.ascontiguousarray(b[:, idx].T)  # row p: coordinates of mode idx[p]
    res = np.array(t, dtype=float, order="F")
    p = 0
    for group in groups:
        for _ in group:
            # res - Re(b c) = res - Re b Re c + Im b Im c
            res = dger(-1.0, b_sel[p].real, coef[p].real, a=res, overwrite_a=True)
            res = dger(1.0, b_sel[p].imag, coef[p].imag, a=res, overwrite_a=True)
            p += 1
        yield res


def rank2_residuals(t: np.ndarray, b: np.ndarray, dec: dmd.DmdDecomposition, groups):
    """Yield the coordinate residual T - Re(B C) of the reconstruction of
    the snapshots with coordinates ``t``, mode coordinates ``b``, after
    each group of modes is added, C[j, k] = a_j lambda_j^k.

    Modes enter one at a time in the given order, each as one real
    rank-2 product, Re(b c) = [Re b, Im b] [Re c; -Im c], into one
    buffer subtracted in place, so a mode sequence gives bit-identical
    residuals however it is split into groups.  One array is updated in
    place and yielded each time.
    """
    idx = np.asarray([j for group in groups for j in group], dtype=int)
    coef = dec.amplitudes[idx, None] * rom._vandermonde(dec.lambdas[idx], t.shape[1])
    b_sel = b[:, idx].T  # row p: coordinates of mode idx[p]
    x = np.stack([b_sel.real, b_sel.imag], axis=2)  # x[p]: rows x 2
    y = np.stack([coef.real, -coef.imag], axis=1)   # y[p]: 2 x Nt
    res = np.array(t, dtype=float)
    buf = np.empty_like(res)
    factors = zip(x, y)
    for group in groups:
        # zip ends at the group's end before it draws from ``factors``
        for _, (xp, yp) in zip(group, factors):
            res -= np.matmul(xp, yp, out=buf)
        yield res


# --- comparisons ---

@pytest.fixture(scope="module")
def both_paths(desk_data):
    """Per field: the matrix, the coordinate decomposition and model, and
    the full-space decomposition and model, from one companion fit."""
    out = {}
    for name in FIELDS:
        matrix = desk_data[name]
        fit = kr.fit_companion(matrix)
        new = kr.eigendecompose(fit, matrix)
        old = old_eigendecompose(fit, shifted_pair(matrix), matrix.dt)
        old_compute_amplitudes(old, matrix)
        out[name] = (matrix, new, kr.select_leading_modes(matrix, new, EPSILON),
                     old, old_select_leading_modes(matrix, old, EPSILON))
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_modes_and_amplitudes_match(both_paths, name):
    _, new, _, old, _ = both_paths[name]
    assert new.r is not None  # the coordinate path is the one under test
    assert np.array_equal(new.lambdas, old.lambdas)
    rot = lead_rotation(new.modes, old.modes)
    assert np.max(np.abs(new.modes * rot - old.modes)) <= 1e-8
    assert normwise_dev(new.amplitudes / rot, old.amplitudes) <= 1e-9


@pytest.mark.parametrize("name", FIELDS)
def test_selection_matches(both_paths, name):
    matrix, new, model, old, ref = both_paths[name]
    assert model.selected == ref.selected
    assert model.converged and ref.converged
    assert rel_dev(model.achieved_error, ref.achieved_error) <= 1e-9
    weights = old_mode_weights(old, matrix.n_snapshots - 1, old.dt)
    assert normwise_dev(model.weights, weights) <= 1e-9
    assert rel_dev(kr.per_time_errors(matrix, new, model.selected),
                   old_per_time_errors(matrix, old, ref.selected)) <= 1e-6


def test_foreign_matrix(both_paths):
    """Errors of a matrix other than the decomposed one go through the
    QR of [V0 | Re Phi | Im Phi] and match the full-space formulas on the
    same decomposition."""
    matrix, dec, model, _, _ = both_paths["h"]
    rng = np.random.default_rng(0)
    data = matrix.data * (1.0 + 1e-3 * rng.standard_normal(matrix.data.shape))
    foreign = dataclasses.replace(matrix, data=data)
    for subset in (model.selected, range(len(dec.lambdas))):
        assert rel_dev(kr.relative_error(foreign, dec, subset),
                       old_relative_error(foreign, dec, subset)) <= 1e-9
        assert rel_dev(kr.per_time_errors(foreign, dec, subset),
                       old_per_time_errors(foreign, dec, subset)) <= 1e-6


@pytest.mark.parametrize("name", FIELDS)
def test_reconstruct_matches(both_paths, name):
    """reconstruct applies V0 to one Nt-vector; the full-space sum over
    the formed modes gives the same snapshot."""
    matrix, new, model, old, ref = both_paths[name]
    for i in (1, 2, 73, matrix.n_snapshots - 1):
        want = old_reconstruct(old, ref.selected, i)
        got = kr.reconstruct(new, model.selected, i)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("name", FIELDS)
def test_residual_kernel_matches_rank_one_updates(both_paths, monkeypatch, name):
    """The selection through the rank-2 kernel against the same selection
    through the two rank-one updates per mode, on one decomposition."""
    matrix, new, model, _, _ = both_paths[name]
    monkeypatch.setattr(rom, "_residuals", old_residuals)
    ref = kr.select_leading_modes(matrix, new, EPSILON)
    assert model.selected == ref.selected and model.order == ref.order
    assert rel_dev(model.achieved_error, ref.achieved_error) <= 1e-13
    assert rel_dev(model.time_errors, ref.time_errors) <= 1e-11


@pytest.mark.parametrize("name", FIELDS)
def test_group_kernel_matches_one_product_per_mode(both_paths, monkeypatch, name):
    """The selection through one product per conjugate group against the
    same selection through one rank-2 product per mode."""
    matrix, new, model, _, _ = both_paths[name]
    monkeypatch.setattr(rom, "_residuals", rank2_residuals)
    ref = kr.select_leading_modes(matrix, new, EPSILON)
    assert model.selected == ref.selected and model.order == ref.order
    assert rel_dev(model.achieved_error, ref.achieved_error) <= 1e-13
    assert rel_dev(model.time_errors, ref.time_errors) <= 1e-11


@pytest.mark.parametrize("name", FIELDS)
def test_partners_listed_apart_or_reversed_enter_alone(both_paths, monkeypatch, name):
    """A subset that lists every pair's partners in reverse, or apart,
    gives the residual of its modes entering one by one, and the errors
    of the per-mode kernel within the same tolerances."""
    matrix, dec, model, _, _ = both_paths[name]
    pairs = [group for group in model.order if len(group) == 2]
    assert pairs
    reversed_ = [j for group in model.order for j in group[::-1]]
    apart = [group[0] for group in model.order] + [group[1] for group in pairs]
    t, b = dec.coordinates(matrix.v0)
    for subset in (reversed_, apart):
        (res,) = rom._residuals(t, b, dec, [subset])
        *_, alone = rom._residuals(t, b, dec, [[j] for j in subset])
        assert np.array_equal(res, alone)
        got = (kr.relative_error(matrix, dec, subset), kr.per_time_errors(matrix, dec, subset))
        with monkeypatch.context() as patch:
            patch.setattr(rom, "_residuals", rank2_residuals)
            want = (kr.relative_error(matrix, dec, subset),
                    kr.per_time_errors(matrix, dec, subset))
        assert rel_dev(got[0], want[0]) <= 1e-13
        assert rel_dev(got[1], want[1]) <= 1e-11


# --- the selection curve against the greedy loop ---

def loop_select_leading_modes(matrix, dec, epsilon):
    """The greedy loop that stops at the first prefix within epsilon, as
    ``rom.select_leading_modes`` ran it before the selection curve,
    verbatim apart from its name, docstring and the weights and order,
    which ``rom._ranking`` now gives in one call."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")

    weights, order = rom._ranking(dec, matrix.n_snapshots - 1)
    t, b = dec.coordinates(matrix.v0)
    ref = rom._reference_norm(t)

    selected: list[int] = []
    achieved = 1.0  # the empty reconstruction
    for group, res in zip(order, rom._residuals(t, b, dec, order)):
        selected.extend(group)
        achieved = float(np.linalg.norm(res) / ref)
        if achieved <= epsilon:
            break

    sel_arr = np.asarray(selected, dtype=int)
    return RomModel(
        selected=tuple(selected),
        lambdas=dec.lambdas[sel_arr],
        amplitudes=dec.amplitudes[sel_arr],
        n_dmd=len(selected),
        achieved_error=achieved,
        epsilon=epsilon,
        full_rank=dec.lambdas.shape[0],
        converged=achieved <= epsilon,
        weights=weights,
        order=tuple(tuple(group) for group in order),
        time_errors=rom._column_errors(res, t),
    )


def sweep(curve):
    """Every value of the curve inside (0, 1), its two floating-point
    neighbours, and thresholds below and above every value."""
    values = {1e-12, 0.999}
    for c in curve.tolist():
        values |= {c, float(np.nextafter(c, 0.0)), float(np.nextafter(c, 1.0))}
    return sorted(v for v in values if 0.0 < v < 1.0)


@pytest.fixture(scope="module", params=[*FIELDS, "synthetic"])
def curve_case(request, desk_data, tmp_path_factory):
    """A matrix, its decomposition and the path of its store, written by
    a store miss at EPSILON."""
    if request.param == "synthetic":
        rng = np.random.default_rng(71)
        data, *_ = make_modal_data(rng, 60, n_pairs=6, n_real=3, n_snapshots=31)
        data += 1e-6 * rng.standard_normal(data.shape)
        matrix = matrix_from_array(data, dt=0.25)
    else:
        matrix = desk_data[request.param]
    path = tmp_path_factory.mktemp("curve") / "dmd.npz"
    used, dec, model = kr.reduced_model(matrix, EPSILON, path)
    return matrix, used, dec, model, path


def assert_same_selection(model, ref):
    assert model.selected == ref.selected
    assert model.achieved_error == ref.achieved_error
    assert model.converged == ref.converged
    assert model.order == ref.order
    assert np.array_equal(model.weights, ref.weights)


def test_store_miss_is_the_loop(curve_case):
    _, used, dec, model, _ = curve_case
    ref = loop_select_leading_modes(used, dec, EPSILON)
    assert_same_selection(model, ref)
    assert np.array_equal(model.time_errors, ref.time_errors)


def test_stored_curve_selects_as_the_loop_at_every_threshold(curve_case):
    """The selection read off the stored curve, with no residual pass, is
    the loop's at each threshold of the sweep: the same modes, the same
    achieved error bit for bit and the same convergence flag.  At each
    curve value itself the per-time errors of a hit are the loop's too."""
    matrix, used, dec, model, path = curve_case
    assert model.curve.shape == (len(model.order),)
    values = set(model.curve.tolist())
    converged = set()
    for eps in sweep(model.curve):
        ref = loop_select_leading_modes(used, dec, eps)
        hit_used, hit_dec, hit = kr.reduced_model(matrix, eps, path,
                                                  time_errors=eps in values)
        assert hit_used.n_snapshots == used.n_snapshots
        assert_same_selection(hit, ref)
        assert np.array_equal(hit.curve, model.curve)
        if eps in values:
            assert np.array_equal(hit.time_errors, ref.time_errors)
        else:
            assert hit.time_errors is None
        converged.add(hit.converged)
    assert converged == {False, True}

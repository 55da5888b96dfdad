"""Mode weighting, reconstruction error and leading-mode selection.

Each mode gets a nonnegative weight, the time-quadrature of its
contribution magnitude: w_j = dt * sum_{i=1..Nt} |a_j| |lambda_j|^(i-1).
Modes are then admitted greedily in descending weight order (conjugate
partners together, so reconstructions stay real) until the aggregate
relative reconstruction error drops below the requested threshold.

Every reconstruction error runs in snapshot coordinates (see ``dmd``):
one kernel, ``_residuals``, forms the coordinate residual T - Re(B C),
one real rank-2 product per mode, whose column norms equal those of the
full-space residual.  The reference norms are those of T, the snapshot
coordinates (R for the decomposed window, else from one QR of [V0 | X]),
so no error forms the mode matrix or an Nx x Nt temporary.  A mode
subset must name distinct modes (IndexOutOfRange otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dmd
from .errors import ZeroNormData
from .snapshots import SnapshotMatrix


@dataclass(frozen=True)
class ModeWeight:
    mode_index: int
    weight: float


@dataclass(frozen=True)
class RomModel:
    """A leading-mode subset and the error it achieves.

    ``selected`` is ordered by descending weight (conjugate partners
    adjacent); ``converged`` is False when no prefix reached epsilon, in
    which case all modes are selected and achieved_error is the best
    (full-set) error.  ``weights`` holds the weight of every mode of the
    decomposition, by mode index, and ``order`` its conjugate groups in
    admission order.  ``time_errors`` holds the relative error of each
    reconstructed snapshot under the selection, what ``per_time_errors``
    returns for ``selected``, taken from the selection's own residual.
    """

    selected: tuple[int, ...]
    lambdas: np.ndarray
    amplitudes: np.ndarray
    n_dmd: int
    achieved_error: float
    epsilon: float
    full_rank: int
    converged: bool
    weights: Optional[np.ndarray] = None
    order: tuple[tuple[int, ...], ...] = ()
    time_errors: Optional[np.ndarray] = None


def mode_weights(dec: dmd.DmdDecomposition, n_steps: int, dt: float) -> list[ModeWeight]:
    """Weight of every mode over an n_steps reconstruction horizon."""
    powers = np.abs(dec.lambdas)[None, :] ** np.arange(n_steps)[:, None]
    w = dt * (np.abs(dec.amplitudes)[None, :] * powers).sum(axis=0)
    return [ModeWeight(mode_index=j, weight=float(w[j])) for j in range(w.shape[0])]


def _reconstruction_span(matrix: SnapshotMatrix) -> np.ndarray:
    # snapshots i = 1..Nt (1-based), i.e. all columns but the last: the
    # final snapshot is the fit target and lies outside the expansion
    return matrix.data[:, :-1]


def _vandermonde(lambdas: np.ndarray, n_steps: int) -> np.ndarray:
    return lambdas[:, None] ** np.arange(n_steps)[None, :]


def _reference_norm(t: np.ndarray) -> float:
    """Frobenius norm of the snapshots, from their coordinates ``t``."""
    ref = np.linalg.norm(t)
    if ref == 0.0:
        raise ZeroNormData("reference snapshots have zero norm")
    return ref


def _residuals(t: np.ndarray, b: np.ndarray, dec: dmd.DmdDecomposition, groups):
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
    coef = dec.amplitudes[idx, None] * _vandermonde(dec.lambdas[idx], t.shape[1])
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


def relative_error(matrix: SnapshotMatrix, dec: dmd.DmdDecomposition,
                   subset) -> float:
    """Frobenius-aggregate relative error of the subset reconstruction
    over every reconstructible snapshot."""
    idx = dec._mode_index(subset)
    t, b = dec.coordinates(_reconstruction_span(matrix))
    ref = _reference_norm(t)
    (res,) = _residuals(t, b, dec, [idx])
    return float(np.linalg.norm(res) / ref)


def per_time_errors(matrix: SnapshotMatrix, dec: dmd.DmdDecomposition,
                    subset) -> np.ndarray:
    """Relative error of each reconstructed snapshot separately.

    Entry k corresponds to snapshot index i = k + 1 (source column k).
    """
    idx = dec._mode_index(subset)
    t, b = dec.coordinates(_reconstruction_span(matrix))
    (res,) = _residuals(t, b, dec, [idx])
    return _column_errors(res, t)


def _column_errors(res: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Column norms of the residual ``res`` over those of ``t``; inf
    where a snapshot is zero."""
    num = np.linalg.norm(res, axis=0)
    den = np.linalg.norm(t, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.inf)


def _selection_order(dec: dmd.DmdDecomposition, weights: np.ndarray) -> list[list[int]]:
    """Conjugate groups sorted by descending weight.

    Ties break toward the lower |frequency|, then the lower index, so
    the ordering is deterministic.
    """
    groups = dmd.conjugate_groups(dec.lambdas)
    freq = np.abs(dec.exponents.imag)

    def key(group):
        j = min(group, key=lambda k: (freq[k], k))
        return (-weights[group[0]], freq[j], j)

    return sorted(groups, key=key)


def select_leading_modes(matrix: SnapshotMatrix, dec: dmd.DmdDecomposition,
                         epsilon: float) -> RomModel:
    """Admit whole conjugate groups in descending weight order until the
    aggregate relative error reaches epsilon.

    Returns the first (smallest) selection that achieves the threshold;
    if none does, returns all modes flagged as not converged with the
    best error achieved.  The error of each prefix is exactly what
    ``relative_error`` reports for it, and ``time_errors`` is exactly
    what ``per_time_errors`` reports for the selection.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")

    weights = np.array([mw.weight for mw in
                        mode_weights(dec, matrix.n_snapshots - 1, dec.dt)])
    order = _selection_order(dec, weights)
    t, b = dec.coordinates(_reconstruction_span(matrix))
    ref = _reference_norm(t)

    selected: list[int] = []
    achieved = 1.0  # the empty reconstruction
    for group, res in zip(order, _residuals(t, b, dec, order)):
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
        time_errors=_column_errors(res, t),
    )


def reduction_percentage(rom: RomModel) -> float:
    """Percentage of modes dropped, truncated to two decimals."""
    if rom.full_rank <= 0:
        raise ValueError("full_rank must be positive")
    pct = 100.0 * (rom.full_rank - rom.n_dmd) / rom.full_rank
    return math.floor(pct * 100.0) / 100.0


__all__ = [
    "ModeWeight", "RomModel",
    "mode_weights", "relative_error", "per_time_errors",
    "select_leading_modes", "reduction_percentage",
]

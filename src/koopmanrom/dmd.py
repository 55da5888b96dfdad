"""Companion-matrix dynamic mode decomposition.

The last snapshot of the matrix is fit as a linear combination of its
predecessors (least squares via QR; the normal equations would
squander precision on these notoriously ill-conditioned bases).  The
combination coefficients fill the last column of a companion matrix
whose eigenvalues approximate the spectrum of the underlying evolution
operator; modes are the snapshot-basis images of its eigenvectors.

Companion spectrum: the eigenvalues of the companion matrix are the
roots of its polynomial p(x) = x^Nt - sum_k c_k x^k, found by the
Aberth-Ehrlich iteration at O(Nt^2) a step (``_aberth``), and its right
eigenvectors follow from the backward recursion of Horner's rule on p,
z[Nt-1] = 1, z[k-1] = lambda z[k] - c_k.  When the iteration does not
converge, an iterate is not finite, two roots are not separated (a
multiple root, as of a zero fit target) or a root has no conjugate
partner, ``np.linalg.eig`` of the companion matrix gives them instead.
The layout is fixed there once, on either path: a conjugate pair is
listed in adjacent columns, positive imaginary part first, exactly
conjugate, and each eigenvector is divided by its largest-magnitude
entry.  The pairs are read from that layout (``conjugate_groups``).

Reconstruction indexing: with amplitudes fit to the first snapshot,
``reconstruct(dec, subset, i)`` approximates the i-th snapshot (1-based,
so i = 1 is the first column of the source matrix).

Snapshot coordinates: one R-only QR, [V0 | u_N] = Q [R, q; 0, rho],
gives the Nt x Nt triangle R of V0 = Q R, q = Q^T u_N and the fit
residual |rho|; Q (real, orthonormal, Nx x Nt) is never formed.  The
decomposition keeps the companion eigenvectors z, each scaled to a unit
image, its own largest-magnitude entry real and positive, so mode j is
V0 z_j = Q B[:, j] with B = R z, and for any coefficients C,
||V0 - Re(Phi C)|| = ||R - Re(B C)|| column by column.  The amplitudes
here and every reconstruction error in ``rom`` are therefore computed
from the Nt x Nt arrays R and B, and ``reconstruct`` applies V0 to one
Nt-vector.  The Nx x m mode matrix is formed only when
``DmdDecomposition.modes`` is read.  A matrix X other than the one
decomposed gets its coordinates from one real QR of [V0 | X]
(``DmdDecomposition.coordinates``).  A decomposition is frozen, and
complete when ``eigendecompose`` returns it.  The store that keeps a
decomposition on disk, with its selection curve, belongs to ``rom``
(``rom.reduced_model``).

Least squares: ``_qr_solve`` factors one Fortran copy of its block
through the LAPACK that numpy's wheel bundles (``_lapack``), with
numpy's own workspace query, so R has the bits of ``np.linalg.qr``
without its two payload-sized copies, and ``np.linalg.solve``
back-substitutes on R.  The rank gate certifies full rank from
||R||_F ||R^-1||_F where it can (``_certified_full_rank``) and takes
the SVD of R otherwise, so it decides as the SVD alone did.  Where that
library is missing, or the block is neither float64 nor complex128,
``np.linalg`` does the same work.  ``coordinates`` of a foreign matrix
takes ``np.linalg.qr`` of [V0 | X], the same routine on the same block.

Thread count: the public functions that factor, multiply or take norms
run on one BLAS thread (``_lapack.one_thread``), so their bits do not
depend on the thread count the caller set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _lapack
from .errors import (EigenFailure, IndexOutOfRange, NonFiniteData, RankDeficient,
                     ZeroNormData)
from .snapshots import SnapshotMatrix

_RANK_RTOL = 1e-12
# the largest triangle whose rank ``_certified_full_rank`` certifies
_CERTIFY_MAX_N = 1000
# smallest data norm whose machine-precision residual, 2**-52 of it, still
# has a normal square: (2**-459 * 2**-52)**2 = 2**-1022
_NORM_MIN = 2.0 ** -459
# the companion's roots (``_aberth``): machine epsilon of the rounding
# bound, and the iteration cap beyond which np.linalg.eig takes over
_EPS = float(np.finfo(float).eps)
_ABERTH_MAX_IT = 60


@dataclass(frozen=True)
class CompanionFit:
    """Least-squares combination coefficients and their companion matrix."""

    coefficients: np.ndarray    # c, shape (Nt,)
    residual_norm: float
    r: np.ndarray               # R of V0 = Q R, shape (Nt, Nt)

    @cached_property
    def companion(self) -> np.ndarray:
        """The (Nt, Nt) companion matrix S, formed at the first read: ones
        on the subdiagonal, the coefficients in the last column."""
        companion = np.eye(self.coefficients.shape[0], k=-1)
        companion[:, -1] = self.coefficients
        return companion


@dataclass(frozen=True)
class DmdDecomposition:
    """Eigenvalues, amplitudes and unit modes; ``exponents`` is derived.

    Frozen, and complete when ``eigendecompose`` returns it: every field
    is required, and no function changes one (``dataclasses.replace``
    gives a changed copy).
    """

    lambdas: np.ndarray         # complex, shape (m,)
    dt: float
    amplitudes: np.ndarray      # complex, shape (m,)
    # snapshot coordinates: the decomposed V0 (a view, not a copy), R, B
    # and the eigenvectors z with unit images and pinned phases
    v0: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    mode_coords: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)

    @cached_property
    def exponents(self) -> np.ndarray:
        """log(lambdas) / dt on the principal branch, formed at the first
        read: the frequency lies in (-pi/dt, pi/dt], and the real part is
        -inf, with no warning, for lambda = 0 or a decay that overflows."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.log(self.lambdas.astype(complex, copy=False)) / self.dt

    @cached_property
    @_lapack.one_thread()
    def modes(self) -> np.ndarray:
        """The complex (Nx, m) unit modes V0 @ z, formed at the first read
        from two real products, one per part of z, on one BLAS thread; a
        conjugate pair of modes is exactly conjugate because its pair of z
        columns is."""
        modes = np.empty((self.v0.shape[0], self.z.shape[1]), dtype=self.z.dtype)
        modes.real = self.v0 @ self.z.real
        if np.iscomplexobj(self.z):
            modes.imag = self.v0 @ self.z.imag
        return modes

    def coordinates(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(T, B) with x = Q T and modes = Q B for one real Q with
        orthonormal columns, so norms of x - Re(modes C) are norms of
        T - Re(B C).

        Returns the stored R and B when ``x`` equals the decomposed V0;
        otherwise takes them from one real QR of [V0 | x] = Q R'
        (``np.linalg.qr``), as T = R'[:, Nt:] and B = R'[:, :Nt] z, and
        forms no mode matrix: for an x as wide as V0 the call peaks at
        about four times the size of x.
        """
        if _same_view(x, self.v0) or np.array_equal(x, self.v0):
            return self.r, self.mode_coords
        nt = self.v0.shape[1]
        r = np.linalg.qr(np.hstack([self.v0, x]), mode="r")
        return r[:, nt:], r[:, :nt] @ self.z

    def _mode_index(self, subset: Sequence[int]) -> np.ndarray:
        """``subset`` as an index array of distinct modes in [0, m), else
        IndexOutOfRange.  Repeats are found with a set: the first call of
        np.unique maps about 0.75 MiB more of numpy's code."""
        idx = np.asarray(list(subset), dtype=int)
        m = self.lambdas.shape[0]
        if np.any((idx < 0) | (idx >= m)) or len(set(idx.tolist())) < idx.size:
            raise IndexOutOfRange(f"mode indices must be distinct and in [0, {m})")
        return idx


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` view the same memory the same way."""
    return (a.ctypes.data == b.ctypes.data and a.shape == b.shape
            and a.strides == b.strides and a.dtype == b.dtype)


def _qr_solve(block: np.ndarray, what: str):
    """Least-squares solve of the last column of ``block`` against the
    others, with a hard rank gate, from one R-only QR of ``block``.
    Returns the solution, the triangle R of the basis and the residual
    norm (0 for a square basis).

    A float64 or complex128 block is factored on one Fortran copy by the
    LAPACK bundled with numpy, with the bits of ``np.linalg.qr``, and the
    rank gate reads the singular values of R only where
    ``_certified_full_rank`` does not pass it.  Without that library,
    and for other dtypes, ``np.linalg.qr`` factors the block and the SVD
    decides.  ``np.linalg.solve`` back-substitutes on R either way.
    """
    n = block.shape[1] - 1
    lapack = _lapack.load() if block.dtype.type in (np.float64, np.complex128) else None
    if lapack is None:
        rt = np.linalg.qr(block, mode="r")
    else:
        buf = np.array(block, dtype=block.dtype.type, order="F")
        lapack.geqrf(buf)
        rt = np.triu(buf[:min(buf.shape)])
    r = rt[:n, :n]
    if lapack is None or not _certified_full_rank(lapack, r):
        sv = np.linalg.svd(r, compute_uv=False)
        rank = int(np.sum(sv > _RANK_RTOL * sv[0])) if sv.size else 0
        if rank < n:
            raise RankDeficient(rank, n, what=what)
    residual = float(abs(rt[n, n])) if rt.shape[0] > n else 0.0
    # LU of an upper triangle pivots on its diagonal, which the rank gate
    # keeps nonzero: this is a back-substitution
    return np.linalg.solve(r, rt[:n, n]), r, residual


def _certified_full_rank(lapack, r: np.ndarray) -> bool:
    """Whether the square triangle ``r`` is certified to pass the SVD rank
    gate of ``_qr_solve``, sigma_min / sigma_max > _RANK_RTOL, without
    its singular values.

    sigma_min / sigma_max >= 1 / (||R||_F ||R^-1||_F) holds exactly, as
    sigma_max <= ||R||_F and 1 / sigma_min = ||R^-1||_2 <= ||R^-1||_F.
    The certificate is that bound, from the inverse ``trtri`` computes in
    O(n^3 / 3), above 2 _RANK_RTOL.  The computed inverse has a relative
    error of about n u kappa (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 8 and 14), u = 2**-53;
    where the certificate holds, kappa <= 5e11, so for n <= 1000 that
    error is below 0.06 and the true ratio above 1.8 _RANK_RTOL.  The
    computed singular values are off by about n u sigma_max, at most
    0.11 _RANK_RTOL sigma_max, so the SVD would find the ratio above
    _RANK_RTOL and the full rank: the certificate never passes a
    triangle the SVD gate fails.  Larger triangles, a zero on the
    diagonal, and norms that are not finite or below 2**-459 (where an
    underflow could hide in them) are not certified, and take the SVD.
    """
    n = r.shape[0]
    if not 0 < n == r.shape[1] <= _CERTIFY_MAX_N:
        return False
    inv = np.array(r, order="F")
    if not lapack.trtri(inv):
        return False
    with np.errstate(over="ignore", invalid="ignore"):   # inf or NaN fails below
        nr, ni = np.linalg.norm(r), np.linalg.norm(inv)
        return bool(nr >= _NORM_MIN and ni >= _NORM_MIN and nr * ni < 0.5 / _RANK_RTOL)


@_lapack.one_thread()
def fit_companion(matrix: SnapshotMatrix) -> CompanionFit:
    """Fit the last snapshot as a combination of all previous ones.

    Minimizes ||u_Nt - V0 c||_2, which makes the residual orthogonal to
    the span of the previous snapshots; ``matrix.data`` is [V0 | u_Nt],
    factored as it is.  Raises RankDeficient when V0 does not have full
    column rank at relative tolerance 1e-12, as when it has fewer rows
    than columns.
    """
    c, r, residual = _qr_solve(matrix.data, what="V0")
    return CompanionFit(coefficients=c, residual_norm=residual, r=r)


@_lapack.one_thread()
def eigendecompose(fit: CompanionFit, matrix: SnapshotMatrix) -> DmdDecomposition:
    """Eigen-decompose the companion matrix of ``matrix``'s fit into modes
    and amplitudes.

    Mode j is V0 z_j, with z_j as ``_companion_eig`` lays it out (its
    largest-magnitude entry 1, which pins the phase) scaled to a unit
    image.  The norms are those of R z_j (Q is orthonormal), so no
    element of V0 is read: the decomposition keeps V0, R, the scaled z,
    the mode coordinates R z and the amplitudes (a rank-deficient mode
    matrix raises RankDeficient), and forms the modes when they are read.
    """
    lambdas, z = _companion_eig(fit)
    coords = fit.r @ z
    norms = np.linalg.norm(coords, axis=0)
    if np.any(norms == 0.0):
        raise EigenFailure("eigenvector mapped to a zero mode")
    b = coords / norms
    return DmdDecomposition(lambdas, matrix.dt, _amplitudes(fit.r, b, lambdas),
                            v0=matrix.v0, r=fit.r, mode_coords=b, z=z / norms)


def _companion_eig(fit: CompanionFit) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors of the companion matrix of
    ``fit``, in the one layout the rest of the package reads: real arrays
    when every eigenvalue is real, else each conjugate pair in adjacent
    columns, positive imaginary part first, exactly conjugate, as
    ``np.linalg.eig`` gives them; each eigenvector divided by its
    largest-magnitude entry, on either path, so that entry is 1.

    The eigenvalues are the roots of p(x) = x^Nt - sum_k c_k x^k
    (``_aberth``), listed by descending modulus, then ascending argument;
    an eigenvalue within 1e-10 relative of the real axis is made real.
    Eigenvector j is Horner's rule on p at lambda_j, the backward
    recursion z[Nt-1] = 1, z[k-1] = lambda_j z[k] - c_k.  When the
    iteration does not converge, an iterate or a vector is not finite,
    the roots are not separated by their inclusion radii (a multiple
    root, as of a zero fit target), or a root has no conjugate partner,
    the companion matrix goes to ``np.linalg.eig`` instead.
    """
    found = _aberth(fit.coefficients)
    if found is not None:
        found = _conjugate_layout(fit.coefficients, *found)
    if found is None:
        try:
            found = np.linalg.eig(fit.companion)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(str(exc)) from exc
    lambdas, z = found
    lead = np.argmax(np.abs(z), axis=0), np.arange(z.shape[1])
    z /= z[lead]
    z[lead] = 1.0
    return lambdas, z


def _conjugate_layout(c: np.ndarray, x: np.ndarray, radius: np.ndarray):
    """The eigenvalues and recursion eigenvectors of ``_companion_eig``
    from the roots ``x`` of its polynomial, with inclusion radii
    ``radius``: real roots made real, each upper root averaged with the
    conjugate of its nearest lower root and listed with its conjugate
    after it.  None when a root has no conjugate partner within their
    radii, two inclusion disks of the listed roots meet, or a vector is
    not finite."""
    real = np.abs(x.imag) <= 1e-10 * np.maximum(np.abs(x), 1.0)
    upper = np.flatnonzero(~real & (x.imag > 0))
    lower = np.flatnonzero(~real & (x.imag < 0))
    if upper.size != lower.size:
        return None
    mate = lower
    if upper.size:
        gap = np.abs(x[upper, None] - x[None, lower].conj())
        mate = lower[np.argmin(gap, axis=1)]
        if (len(set(mate.tolist())) < mate.size
                or np.any(gap.min(axis=1) > radius[upper] + radius[mate])):
            return None
    reps = np.concatenate([x[real].real.astype(complex),
                           0.5 * (x[upper] + x[mate].conj())])
    rad = np.concatenate([radius[real], np.maximum(radius[upper], radius[mate])])
    order = np.lexsort((np.angle(reps), -np.abs(reps)))
    reps, rad = reps[order], rad[order]
    pair = reps.imag > 0
    lambdas = np.repeat(reps, np.where(pair, 2, 1))
    rad = np.repeat(rad, np.where(pair, 2, 1))
    first = np.arange(reps.size) + np.cumsum(pair) - pair
    lambdas[first[pair] + 1] = reps[pair].conj()
    if not pair.any():
        lambdas = lambdas.real.copy()
    gap = np.abs(lambdas[:, None] - lambdas[None, :])
    np.fill_diagonal(gap, np.inf)
    if np.any(gap <= rad[:, None] + rad[None, :]):
        return None
    nt = c.shape[0]
    z = np.empty((nt, nt), dtype=lambdas.dtype)
    z[-1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nt - 1, 0, -1):
            np.multiply(z[k], lambdas, out=z[k - 1])
            z[k - 1] -= c[k]
    if not np.all(np.isfinite(z)):
        return None
    return lambdas, z


def _aberth(c: np.ndarray):
    """Roots of p(x) = x^Nt - sum_k c_k x^k by the Aberth-Ehrlich
    iteration, with their inclusion radii, or None.

    D. A. Bini, "Numerical computation of polynomial zeros by means of
    Aberth's method", Numer. Algorithms 13 (1996): every root moves at
    once by x_i -= N_i / (1 - N_i sum_{j != i} 1 / (x_i - x_j)), N_i the
    Newton correction p(x_i) / p'(x_i), from Bini's starting points on
    the circles of the Newton polygon of p.  A root stops when |p(x_i)|
    is at or below the rounding bound of Horner's rule,
    eps sum_k (3.8 k + 1) |a_k| |x_i|^k with a_k the coefficient of x^k,
    computed in the same pass as p(x_i) (the stopping rule of MPSolve:
    Bini & Robol, J. Comput. Appl. Math. 272, 2014).  When every root
    has stopped, one more step polishes them all.

    The radius of root i is Nt (|p(x_i)| + b_i) / |p'(x_i)|, b_i that
    bound with every |a_k| taken as max_k |a_k|: a disk about x_i that
    holds a root of p under coefficient errors of rounding size relative
    to the largest coefficient, the errors a least-squares fit leaves in
    c and the backward error of ``np.linalg.eig``.  Roots whose disks
    meet count as one multiple root (``_conjugate_layout``).  None when
    a root has not stopped after ``_ABERTH_MAX_IT`` steps or an iterate
    is not finite.
    """
    nt = c.shape[0]
    a = np.append(-c, 1.0)  # a_k, the coefficient of x^k
    k = np.arange(nt + 1)
    # rows: p and its reversal x^Nt p(1/x), then their derivatives, as
    # coefficients of the powers 0..Nt; the rounding bounds of both, and
    # the normwise bound of the radii
    table = np.zeros((4, nt + 1))
    table[0], table[1] = a, a[::-1]
    table[2:, :-1] = k[1:] * table[:2, 1:]
    bounds = np.abs(table[[0, 1, 0]])
    bounds[2] = bounds[2].max()
    bounds *= _EPS * (3.8 * k + 1.0)
    # a non-finite step ends in np.linalg.eig, not in a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = _aberth_start(a)
        if x is None:
            return None
        stopped = np.zeros(nt, dtype=bool)
        for _ in range(_ABERTH_MAX_IT):
            moving = np.flatnonzero(~stopped)
            newton, done, _ = _newton_terms(x[moving], table, bounds)
            stopped[moving[done]] = True
            moving, newton = moving[~done], newton[~done]
            if moving.size == 0:
                break
            x[moving] -= newton / (1.0 - newton * _aberth_sums(x, moving))
            if not np.all(np.isfinite(x[moving])):
                return None
        else:
            return None
        newton, _, radius = _newton_terms(x, table, bounds)
        x -= newton / (1.0 - newton * _aberth_sums(x, np.arange(nt)))
    if not np.all(np.isfinite(x)):
        return None
    return x, radius


def _aberth_start(a: np.ndarray):
    """Bini's starting points for the roots of sum_k a_k x^k: for each
    edge (i, j) of the upper convex hull of the points (k, log|a_k|), j - i
    points on the circle of radius |a_i / a_j|^(1 / (j - i)), spread
    evenly and turned by 2 pi i / Nt + 0.7.  None when a_0 is zero (a
    root at 0) or a radius is not finite."""
    nt = a.shape[0] - 1
    logs = np.log(np.abs(a)).tolist()
    if logs[0] == -np.inf:
        return None
    hull: list[int] = []
    for k in range(nt + 1):
        if logs[k] == -np.inf:
            continue
        # drop the last vertex while it lies on or below the chord to k
        while len(hull) >= 2 and ((logs[hull[-1]] - logs[hull[-2]]) * (k - hull[-2])
                                  <= (logs[k] - logs[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(k)
    x = np.empty(nt, dtype=complex)
    for i, j in zip(hull, hull[1:]):
        angles = 2.0 * np.pi * (np.arange(j - i) / (j - i) + i / nt) + 0.7
        x[i:j] = np.exp((logs[i] - logs[j]) / (j - i) + 1j * angles)
    return x if np.all(np.isfinite(x)) else None


def _newton_terms(x: np.ndarray, table: np.ndarray, bounds: np.ndarray):
    """At each point x: the Newton correction p(x) / p'(x), whether |p(x)|
    is within its rounding bound, and the inclusion radius (``_aberth``).

    A point inside the unit circle evaluates p at w = x, one outside its
    reversal q(w) = x^-Nt p(x) at w = 1/x, so no power overflows; then
    p / p' = x q / (Nt q - w q').  All rows of ``table`` and ``bounds``
    are taken in one pass, as products with the powers w^0..w^Nt (one
    cumulative product) and their moduli.
    """
    nt = table.shape[1] - 1
    outside = np.abs(x) > 1.0
    w = x.copy()
    w[outside] = 1.0 / x[outside]
    powers = np.empty((nt + 1, x.shape[0]), dtype=complex)
    powers[0] = 1.0
    powers[1:] = w
    np.multiply.accumulate(powers, axis=0, out=powers)
    values = (table @ powers.view(float)).view(complex)
    sums = bounds @ np.abs(powers)
    cols = np.arange(x.shape[0])
    pick = outside.astype(int)
    p, dp, bound = values[pick, cols], values[pick + 2, cols], sums[pick, cols]
    num = np.where(outside, x * p, p)
    den = np.where(outside, nt * p - w * dp, dp)
    radius = nt * np.where(outside, np.abs(x), 1.0) * (np.abs(p) + sums[2]) / np.abs(den)
    return num / den, np.abs(p) <= bound, radius


def _aberth_sums(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1 / (x_i - x_j) for each i in ``rows``, as
    conj(d) / |d|^2 in real arithmetic."""
    d = x[rows, None] - x[None, :]
    sq = d.real * d.real + d.imag * d.imag
    sq[np.arange(rows.shape[0]), rows] = np.inf
    return (d.real / sq).sum(axis=1) - 1j * (d.imag / sq).sum(axis=1)


def _amplitudes(r: np.ndarray, b: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Least-squares projection of the first snapshot onto the modes.

    Solved in snapshot coordinates, min ||R[:, 0] - B a|| (module
    docstring); the rank gate reads the singular values of B, which are
    those of the mode matrix.  The snapshot is real, so the exact
    amplitudes of a mode pair (j, j + 1 for lambdas[j].imag > 0, the
    layout of ``_companion_eig``) with exactly conjugate coordinates are
    conjugate; they are made so, which gives both partners one weight.
    """
    a, _, _ = _qr_solve(np.column_stack([b, r[:, 0]]), what="mode matrix")
    j = np.flatnonzero(lambdas.imag > 0)
    j = j[np.all(b[:, j + 1] == b[:, j].conj(), axis=0)]
    a[j] = 0.5 * (a[j] + a[j + 1].conj())
    a[j + 1] = a[j].conj()
    return a


@_lapack.one_thread()
def decompose(matrix: SnapshotMatrix) -> tuple[SnapshotMatrix, DmdDecomposition]:
    """Fit, eigendecompose and project the amplitudes of ``matrix``.

    Data whose 2-norm overflows, or non-zero data whose 2-norm is below
    2**-459 (about 6.7e-139), raises NonFiniteData.  When V0 is rank
    deficient (numerical rank r), the snapshot window is truncated once
    to its first r + 1 snapshots and the fit retried; a second
    RankDeficient propagates naming that window, and r = 0 raises
    ZeroNormData.  Returns the matrix actually decomposed, shorter than
    ``matrix`` after a truncation, and its decomposition.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(matrix.data)
    if not np.isfinite(norm):
        raise NonFiniteData("snapshot data: non-finite 2-norm (the sum of squares "
                            "overflows); rescale the data")
    if norm < _NORM_MIN and np.any(matrix.data):
        # the sum of squares may underflow to 0: take the norm of the data
        # divided by its largest magnitude
        peak = np.max(np.abs(matrix.data))
        norm = peak * np.linalg.norm(matrix.data / peak)
        raise NonFiniteData(f"snapshot data: 2-norm {norm:.3g} below 2**-459, where "
                            "the square of a residual at machine precision is "
                            "subnormal; rescale the data")
    try:
        fit = fit_companion(matrix)
    except RankDeficient as exc:
        if exc.rank == 0:
            raise ZeroNormData(f"V0 (the first {exc.n_columns} snapshots) is all "
                               "zero: there are no dynamics to fit") from exc
        matrix = replace(matrix, data=matrix.data[:, :exc.rank + 1])
        try:
            fit = fit_companion(matrix)
        except RankDeficient as again:
            raise RankDeficient(again.rank, again.n_columns,
                                what=f"V0 of the window truncated to the first "
                                     f"{exc.rank + 1} snapshots") from exc
    return matrix, eigendecompose(fit, matrix)


@_lapack.one_thread()
def reconstruct(dec: DmdDecomposition, subset: Sequence[int], i: int) -> np.ndarray:
    """Real part of sum_j a_j lambda_j^(i-1) phi_j over the subset.

    For a conjugate-closed subset the imaginary residue is roundoff.
    ``i`` is the 1-based snapshot index, IndexOutOfRange where a selected
    power overflows; i = 1 targets the snapshot the amplitudes were fit to.
    """
    idx = dec._mode_index(subset)
    if idx.size == 0:
        raise IndexOutOfRange("empty mode subset")
    if i < 1:
        raise IndexOutOfRange(f"snapshot index {i} < 1")
    with np.errstate(over="ignore", invalid="ignore"):
        coef = dec.amplitudes[idx] * dec.lambdas[idx] ** (i - 1)
    if not np.isfinite(coef).all():
        raise IndexOutOfRange(f"snapshot index i = {i}: a selected mode's power overflows")
    # Re(V0 z c) = V0 Re(z c), V0 real
    return dec.v0 @ (dec.z[:, idx] @ coef).real


def conjugate_groups(lambdas: np.ndarray) -> list[list[int]]:
    """Partition mode indices into conjugate pairs and real singletons,
    read from the layout of ``_companion_eig``: [j, j + 1] is a pair
    where lambdas[j].imag > 0, and every other index stands alone."""
    upper = (lambdas.imag > 0).tolist()
    second = [False] + upper[:-1]
    return [[j, j + 1] if up else [j]
            for j, (up, sec) in enumerate(zip(upper, second)) if not sec]


__all__ = [
    "CompanionFit", "DmdDecomposition",
    "fit_companion", "eigendecompose", "decompose",
    "reconstruct", "conjugate_groups",
]

"""Dense linear algebra helpers with deterministic conventions.

Thin wrappers around LAPACK (via numpy) plus a modified Gram-Schmidt that
reports dropped directions. All routines validate their inputs and raise
errors from the shared taxonomy instead of letting numpy exceptions leak
to callers.

``thin_svd`` needs only a few leading triplets of a matrix that is much
wider than it is tall (or the transpose), so it works on the short side:
it forms the Gram matrix ``a @ a.T``, takes its eigenvectors with
``eigh``, and refines them with one Rayleigh-Ritz pass on ``a`` itself.
All three products with ``a`` are accumulated over column blocks of the
wide orientation, each at most ``_BLOCK_BYTES`` (4 MiB), so ``a`` may be
a zero-copy window such as a Hankel ``sliding_window_view``. Given
``center``, it factorizes ``a - a[center]``, subtracting that row from
each block as the block is formed; the centered matrix never exists.
Squaring the matrix squares its condition number, so that route is taken
only when the rank-th Gram eigenvalue exceeds ``1e-12`` times the largest
one (sigma_rank / sigma_1 above about 1e-6). Below that floor, or when
the Gram matrix overflows, the full dense SVD runs instead, on an
explicitly centered copy when ``center`` is given: the one path that
materializes a matrix the size of ``a``. Results near the numerical rank
limit are exactly those of LAPACK's SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import iadd

import numpy as np

from .errors import (
    DataError,
    DegenerateInputError,
    NumericalError,
    ParameterError,
    check_int,
)

__all__ = [
    "SvdTriple",
    "Spectrum",
    "thin_svd",
    "pseudo_inverse",
    "eigen_nonsymmetric",
    "gram_schmidt",
]

# Smallest Gram eigenvalue ratio w_rank / w_1, i.e. (sigma_rank / sigma_1)^2,
# that thin_svd factorizes through the Gram matrix; below it the dense SVD runs.
_GRAM_FLOOR = 1e-12

# Largest column block of the wide orientation, in bytes, that thin_svd
# forms at once; its working memory beyond the factors is about this much.
_BLOCK_BYTES = 4 * 2**20

# pseudo_inverse treats singular values below this fraction of sigma_1 as
# zero; gram_schmidt drops a vector whose residual falls below this
# fraction of its input norm.
_PINV_RTOL = 1e-12
_GS_DROP_TOL = 1e-12


@dataclass(frozen=True)
class SvdTriple:
    """Rank-truncated singular value decomposition ``a ~ u @ diag(sigma) @ v.T``.

    ``u`` has shape (rows, rank), ``sigma`` shape (rank,) nonincreasing,
    ``v`` shape (cols, rank) with orthonormal columns.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (imaginary, real) part, with matched eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]`` and has unit norm.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(a, name="matrix"):
    """Coerce to a finite, nonempty 2-d float array or raise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ParameterError(f"{name} must be 2-d, got ndim={a.ndim}")
    if a.size == 0:
        raise ParameterError(f"{name} must be nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite entries")
    return a


def thin_svd(a, rank: int, center: int | None = None) -> SvdTriple:
    """Rank-truncated SVD with a deterministic sign convention.

    With ``center`` given, the matrix factorized is ``a - a[center]``: row
    ``center`` is subtracted from every row, block by block, without
    forming the centered matrix.

    The factors come from the short side's Gram matrix: with ``h`` the
    wide orientation of the (centered) matrix (``a`` itself, or ``a.T``
    when ``a`` is tall), ``eigh(h @ h.T)`` gives the leading left basis
    ``q``, then ``y = qr(h.T @ q)`` is an orthonormal trial basis for the
    right vectors and the SVD of the small matrix ``h @ y`` gives the
    singular values and rotates both bases (one Rayleigh-Ritz pass). The
    three products are summed or stacked over column blocks of ``h`` of
    at most ``_BLOCK_BYTES``. The singular values never exceed those of
    the matrix. When the rank-th Gram eigenvalue is at most ``1e-12``
    times the largest, the squared spectrum cannot resolve the trailing
    pairs, and the dense ``np.linalg.svd`` of the (explicitly centered)
    matrix is used instead.

    Each singular pair is flipped so the largest-magnitude entry of its
    left vector is positive. This pins the decomposition itself, not just
    the subspaces, so repeated runs agree entry for entry.
    """
    a = as_matrix(a)
    kmax = min(a.shape)
    check_int("rank", rank)
    if not 1 <= rank <= kmax:
        raise ParameterError(
            f"rank must be in [1, {kmax}] for shape {a.shape}, got {rank}"
        )
    if center is not None:
        check_int("center", center)
        if not 0 <= center < a.shape[0]:
            raise ParameterError(
                f"center must be in [0, {a.shape[0] - 1}] for shape {a.shape}, "
                f"got {center}"
            )
    tall = a.shape[0] > a.shape[1]
    try:
        ritz = _gram_ritz_svd(a, rank, center)
        if ritz is None:
            dense = a if center is None else a - a[center]
            u, s, vt = np.linalg.svd(dense, full_matrices=False)
            u = u[:, :rank].copy()
            s = s[:rank].copy()
            vt = vt[:rank].copy()
        else:
            u, s, right = ritz[::-1] if tall else ritz
            vt = right.T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    for j in range(rank):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0.0:
            u[:, j] = -u[:, j]
            vt[j] = -vt[j]
    return SvdTriple(u=u, sigma=s, v=vt.T.copy())


def _wide_blocks(a, center):
    """Yield ``(j0, block)``: column blocks of the wide orientation ``h`` of ``a``.

    ``h`` is ``a``, or ``a.T`` when ``a`` is tall. Each block holds columns
    ``j0:j0 + block.shape[1]`` of ``h``; with ``center`` given, row
    ``center`` of ``a`` has been subtracted (a row of ``h`` when ``a`` is
    wide, a column when it is tall). All blocks share one buffer of at
    most ``_BLOCK_BYTES`` (one column if a single column is larger), laid
    out as ``h`` is, so a block is overwritten by the next one: use it
    before asking for the next.
    """
    tall = a.shape[0] > a.shape[1]
    h = a.T if tall else a
    rows, cols = h.shape
    step = min(cols, max(1, _BLOCK_BYTES // (h.itemsize * rows)))
    buffer = np.empty((step, rows)).T if tall else np.empty((rows, step))
    # Every block is copied into the buffer, even uncentered: a Hankel
    # window's overlapping strides are not a layout BLAS accepts.
    for j0 in range(0, cols, step):
        part = h[:, j0:j0 + step]
        block = buffer[:, :part.shape[1]]
        if center is None:
            np.copyto(block, part)
        elif tall:
            np.subtract(part, h[:, center, None], out=block)
        else:
            np.subtract(part, h[center, j0:j0 + step], out=block)
        yield j0, block


def _gram_ritz_svd(a, rank, center):
    """Leading ``(u, sigma, v)`` of the wide orientation ``h`` of ``a``.

    ``h`` is centered as ``_wide_blocks`` describes and is only ever seen
    one column block at a time. Returns None when the rank-th Gram
    eigenvalue is at or below ``_GRAM_FLOOR`` times the largest, where the
    squared spectrum has lost the trailing singular values to rounding,
    or when squaring overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = reduce(iadd, (h @ h.T for _, h in _wide_blocks(a, center)))
    if not np.all(np.isfinite(gram)):
        return None
    w, q = np.linalg.eigh(gram)
    if not w[-rank] > _GRAM_FLOOR * w[-1]:
        return None
    q = q[:, ::-1][:, :rank]
    trial = np.concatenate([h.T @ q for _, h in _wide_blocks(a, center)])
    y, _ = np.linalg.qr(trial)
    projected = reduce(
        iadd, (h @ y[j0:j0 + h.shape[1]] for j0, h in _wide_blocks(a, center))
    )
    u, s, wt = np.linalg.svd(projected, full_matrices=False)
    return u, s, y @ wt.T


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``1e-12 * sigma_1`` are treated as zero, so a
    zero matrix maps to the (transposed-shape) zero matrix rather than
    raising.
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    cutoff = _PINV_RTOL * s[0] if s[0] > 0.0 else 0.0
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def eigen_nonsymmetric(a) -> Spectrum:
    """Eigendecomposition of a real square matrix, deterministically ordered.

    Eigenvalues are sorted by ascending imaginary part, ties broken by
    ascending real part, so conjugate pairs appear as (-i*w, ..., +i*w).
    Eigenvectors are returned unit-norm in matching column order.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {a.shape}")
    try:
        w, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.lexsort((w.real, w.imag))
    w = w[order]
    vecs = vecs[:, order]
    norms = np.linalg.norm(vecs, axis=0)
    vecs = vecs / norms
    return Spectrum(eigenvalues=w, eigenvectors=vecs)


def gram_schmidt(vectors):
    """Modified Gram-Schmidt with explicit reporting of dropped inputs.

    Vectors whose residual after projection falls below ``1e-12`` times
    their input norm are dropped, not normalized.

    Parameters
    ----------
    vectors : sequence of 1-d arrays, or a 2-d array of row vectors.

    Returns
    -------
    (basis, dropped) : list of orthonormal 1-d arrays in input order, and
        a tuple of the input indices that were dropped.

    Raises
    ------
    DegenerateInputError
        If an input vector is exactly zero; the message names its index.
    """
    arr = [np.asarray(v, dtype=float) for v in vectors]
    if not arr:
        raise ParameterError("gram_schmidt needs at least one vector")
    dim = arr[0].shape
    for i, v in enumerate(arr):
        if v.ndim != 1:
            raise ParameterError(f"vector {i} must be 1-d, got ndim={v.ndim}")
        if v.shape != dim:
            raise ParameterError(
                f"vector {i} has length {v.shape[0]}, expected {dim[0]}"
            )
        if not np.all(np.isfinite(v)):
            raise DataError(f"vector {i} contains non-finite entries")
    basis: list[np.ndarray] = []
    dropped: list[int] = []
    for i, v in enumerate(arr):
        norm_in = float(np.linalg.norm(v))
        if norm_in == 0.0:
            raise DegenerateInputError(f"input vector {i} is zero")
        w = v.copy()
        for q in basis:
            w -= (q @ w) * q
        norm_out = float(np.linalg.norm(w))
        if norm_out < _GS_DROP_TOL * norm_in:
            dropped.append(i)
            continue
        basis.append(w / norm_out)
    return basis, tuple(dropped)

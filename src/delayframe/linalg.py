"""Dense linear algebra helpers with deterministic conventions.

Thin wrappers around LAPACK (via numpy) plus a modified Gram-Schmidt that
reports dropped directions. All routines validate their inputs and raise
errors from the shared taxonomy instead of letting numpy exceptions leak
to callers.

``thin_svd`` needs only a few leading triplets of a matrix that is much
wider than it is tall (or the transpose), so it works on the short side:
it forms the Gram matrix ``a @ a.T``, takes its leading eigenvectors by
block subspace iteration (``eigh`` only of a block of rank + 4 Ritz
vectors), and refines them with Rayleigh-Ritz passes on ``a`` itself.
A Hankel window (``a[i, j] = x[i + j]``, recognized by its equal strides,
such as a ``sliding_window_view``) is never formed: its three products
come from the series, the Gram matrix by the displacement recurrence and
the products with thin matrices as correlations (the structured SSA
products of Korobeynikov, 2010). Given ``center``, it factorizes
``a - a[center]`` without forming it either. Any other matrix takes the
same products as plain matrix products. Squaring the matrix squares its
condition number, so one pass is enough only when the rank-th Gram
eigenvalue exceeds ``1e-12`` times the largest (sigma_rank / sigma_1
above about 1e-6). Below that floor the passes repeat, as subspace
iteration on the same products (Halko, Martinsson and Tropp, SIAM Review
2011, section 4.5), until every pair's residual is at rounding level or
eight passes have run. The input is scaled by a power of two first, so
no product overflows and the factors keep their bits.

``_one_blas_thread`` runs a block with numpy's BLAS on one thread; the
command line wraps each command in it. The library's routines run at
whatever thread count their caller has.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
from dataclasses import dataclass

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
# at which one Rayleigh-Ritz pass from the Gram eigenvectors is returned;
# below it the passes repeat until the residual is at rounding level.
_GRAM_FLOOR = 1e-12

# Each pass shrinks the error of the basis by about
# (sigma_{rank+1} / sigma_rank)^2. A pair that has not converged after this
# many passes sits so close to the next one that the data hardly fix its
# vectors, and the last pass stands.
_MAX_PASSES = 8

# _leading_eigenpairs iterates on a block of rank + _OVERSAMPLE columns of
# the Gram matrix; one that has not converged after _EIG_BUDGET steps
# widens to the whole space.
_OVERSAMPLE = 4
_EIG_BUDGET = 64

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
    a = _as_2d(a, name)
    _check_finite(a, name)
    return a


def _as_2d(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ParameterError(f"{name} must be 2-d, got ndim={a.ndim}")
    if a.size == 0:
        raise ParameterError(f"{name} must be nonempty, got shape {a.shape}")
    return a


def _check_finite(values, name):
    if not np.all(np.isfinite(values)):
        raise DataError(f"{name} contains non-finite entries")


def thin_svd(a, rank: int, center: int | None = None) -> SvdTriple:
    """Rank-truncated SVD with a deterministic sign convention.

    With ``center`` given, the matrix factorized is ``a - a[center]``: row
    ``center`` subtracted from every row, without forming the result.

    The factors come from the short side's Gram matrix: with ``h`` the
    wide orientation of the (centered) matrix (``a`` itself, or ``a.T``
    when ``a`` is tall), the leading eigenvectors of ``h @ h.T``
    (``_leading_eigenpairs``) give the left basis ``u``, then
    ``y = qr(h.T @ u)`` is an orthonormal trial basis for the
    right vectors and the SVD of the small matrix ``h @ y`` gives the
    singular values and rotates both bases (one Rayleigh-Ritz pass). When
    the rank-th Gram eigenvalue is at most ``1e-12`` times the largest,
    the squared spectrum cannot resolve the trailing pairs, and the pass
    repeats from the new ``u`` until every pair has
    ``|h.T @ u_j - sigma_j v_j| <= eps * sigma_1 * sqrt(max(a.shape))``,
    or eight passes have run. When ``a`` is a Hankel window (equal
    strides), the products come from its series (``_window_products``)
    and ``a`` is never formed; finiteness is then checked on the series'
    samples. The matrix, or the series, is scaled by a power of two so its
    largest magnitude lies in [0.5, 1): no product overflows, and the
    singular values scale back exactly. They never exceed those of the
    matrix.

    Each singular pair is flipped so the largest-magnitude entry of its
    left vector is positive. This pins the decomposition itself, not just
    the subspaces, so repeated runs agree entry for entry.
    """
    a = _as_2d(a, "matrix")
    tall = a.shape[0] > a.shape[1]
    series = _window_series(a.T if tall else a)
    values = a if series is None else series
    _check_finite(values, "matrix")
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
    exponent = math.frexp(max(float(values.max()), -float(values.min())))[1]
    try:
        if series is None:
            products = _matrix_products(np.ldexp(a, -exponent), center, tall)
        else:
            np.ldexp(series, -exponent, out=series)
            products = _window_products(series, kmax, center, tall)
        u, s, v = _gram_ritz_svd(*products, rank, max(a.shape))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if tall:
        u, v = v, u
    for j in range(rank):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdTriple(u=u, sigma=np.ldexp(s, exponent), v=v.copy())


def _gram_ritz_svd(gram, h_t_times, h_times, rank, length):
    """Leading ``(u, sigma, v)`` of the wide orientation ``h``, seen only
    through its Gram matrix and the maps ``q -> h.T @ q``, ``y -> h @ y``.

    The first pass starts from the Gram matrix's ``rank`` leading
    eigenvectors (``_leading_eigenpairs``). When the ratio of its Ritz
    values theta_rank / theta_1 is above ``_GRAM_FLOOR``, that pass is
    returned. Below it, each pass's residual product ``h.T @ u`` is
    checked against ``eps * sigma_1 * sqrt(length)`` and, if it misses,
    starts the next pass, up to ``_MAX_PASSES`` passes.
    """
    theta, q = _leading_eigenpairs(gram, rank)
    u, s, v = _ritz_pass(np.linalg.qr(h_t_times(q))[0], h_times)
    if theta[-1] > _GRAM_FLOOR * theta[0]:
        return u, s, v
    tol = np.finfo(float).eps * math.sqrt(length)
    for _ in range(_MAX_PASSES - 1):
        p = h_t_times(u)
        if _largest_residual(p, s, v) <= tol * s[0]:
            break
        u, s, v = _ritz_pass(np.linalg.qr(p)[0], h_times)
    return u, s, v


def _leading_eigenpairs(gram, rank):
    """The ``rank`` largest eigenvalues of the symmetric ``gram``,
    nonincreasing, and their eigenvectors, by block subspace iteration
    with Rayleigh-Ritz (Halko, Martinsson and Tropp, SIAM Review 2011,
    section 4.5).

    The block holds ``b = min(m, rank + _OVERSAMPLE)`` columns, m the order
    of ``gram``. It starts from ``qr`` of b evenly spaced columns of
    ``gram``, or from the identity when b = m. Each step forms
    ``z = gram @ q`` and takes ``eigh`` of ``q.T @ z``; it stops once each
    of the ``rank`` leading Ritz pairs (theta_j, y_j) meets
    ``|gram @ y_j - theta_j y_j| <= sqrt(m) * eps * theta_1``, else takes
    ``q = qr(z)``. A block that has not met it after ``_EIG_BUDGET`` steps
    widens to the identity, whose Rayleigh-Ritz step is ``eigh(gram)``
    itself, bit for bit.
    """
    m = len(gram)
    b = min(m, rank + _OVERSAMPLE)
    if b == m:
        q = np.eye(m)
    else:
        q = np.linalg.qr(gram[:, np.arange(b) * (m - 1) // (b - 1)])[0]
    tol = np.finfo(float).eps * math.sqrt(m)
    for step in itertools.count(1):
        z = gram @ q
        w, s = np.linalg.eigh(q.T @ z)
        theta, s = w[:-rank - 1:-1], s[:, :-rank - 1:-1]
        vectors = q @ s
        if (q.shape[1] == m
                or _largest_residual(z @ s, theta, vectors) <= tol * theta[0]):
            return theta, vectors
        q = np.linalg.qr(z)[0] if step < _EIG_BUDGET else np.eye(m)


def _ritz_pass(y, h_times):
    """One Rayleigh-Ritz pass on the orthonormal right trial basis ``y``.

    The caller takes ``y = qr(p)[0]`` inline, so the first pass's product
    ``p`` is freed before the pass allocates: holding it shifts the fit's
    heap layout, which moved its peak RSS by about 3 MB with the length
    of the working path.
    """
    u, s, wt = np.linalg.svd(h_times(y), full_matrices=False)
    return u, s, y @ wt.T


def _largest_residual(p, s, v):
    """``max_j |p_j - s_j v_j|``, with one temporary the size of ``v``."""
    r = np.multiply(v, s)
    np.subtract(p, r, out=r)
    return math.sqrt(float(np.max(np.einsum("ij,ij->j", r, r))))


def _matrix_products(a, center, tall):
    """``_gram_ritz_svd``'s products for a matrix held in memory."""
    h = a if center is None else a - a[center]
    if tall:
        h = h.T
    return h @ h.T, lambda q: h.T @ q, lambda y: h @ y


def _window_series(h):
    """The series ``x`` of a Hankel window ``h[i, j] = x[i + j]``, else None.

    Equal strides make ``h`` such a window, whichever way it runs, sliced
    or reversed. A one-row matrix takes the matrix products: centered, its
    window of differences would have no rows.
    """
    if h.shape[0] < 2 or h.strides[0] != h.strides[1]:
        return None
    return np.concatenate([h[:, 0], h[-1, 1:]])


def _window_products(x, rows, center, tall):
    """``_gram_ritz_svd``'s products for the wide orientation ``h`` of a
    Hankel window of the series ``x``, with ``rows`` rows, from ``x`` alone.

    Uncentered, ``h`` is ``hankel(x)``. A wide window centered on row c is
    ``h = T @ hankel(diff(x))``, T the ±1 prefix-sum matrix running out
    from row c (``_spread``): no sample is subtracted from a distant one,
    so an offset in ``x`` costs no accuracy. A tall window centered on its
    row c has column c of ``h`` subtracted from every column; that
    subtraction ignores a constant, so it is applied to ``hankel(x -
    mean(x))`` as a rank-two correction of its Gram matrix.
    """
    if center is None:
        return (_hankel_gram(x, rows), lambda q: _correlate(x, q),
                lambda y: _correlate(x, y))
    if not tall:
        d = np.diff(x)
        gram = _spread(_spread(_hankel_gram(d, rows - 1), center).T, center)
        return (gram, lambda q: _correlate(d, _spread_adjoint(q, center)),
                lambda y: _spread(_correlate(d, y), center))
    z = x - np.mean(x)
    cols = len(z) - rows + 1
    col = z[center:center + rows]
    sums = np.correlate(z, np.ones(cols), "valid")
    gram = (_hankel_gram(z, rows) - np.outer(col, sums) - np.outer(sums, col)
            + cols * np.outer(col, col))

    def h_t_times(q):
        p = _correlate(z, q)
        return p - p[center]

    def h_times(y):
        return _correlate(z, y) - np.outer(col, y.sum(axis=0))

    return gram, h_t_times, h_times


def _correlate(x, b):
    """``hankel(x) @ b`` or ``hankel(x).T @ b``, whichever fits ``b``'s rows:
    one ``np.correlate`` per column of ``b``, written into one array."""
    out = np.empty((len(x) - len(b) + 1, b.shape[1]))
    for j, c in enumerate(b.T):
        out[:, j] = np.correlate(x, c, "valid")
    return out


def _hankel_gram(x, rows):
    """``h @ h.T`` for the ``rows``-row Hankel matrix ``h[i, j] = x[i + j]``.

    Row 0 is one correlation; each later row of the upper triangle follows
    from the one above by the displacement recurrence
    ``G[i+1, j+1] = G[i, j] - x_i x_j + x_{i+n} x_{j+n}``, n the column count.
    """
    n = len(x) - rows + 1
    gram = np.empty((rows, rows))
    gram[0] = gram[:, 0] = np.correlate(x, x[:n], "valid")
    for i in range(rows - 1):
        step = x[i + n] * x[i + n:] - x[i] * x[i:rows - 1]
        gram[i + 1, i + 1:] = gram[i + 1:, i + 1] = gram[i, i:-1] + step
    return gram


def _spread(b, center):
    """``T @ b`` for the ``(len(b) + 1) x len(b)`` prefix-sum matrix T of row
    ``center``: row i is ``b[center:i].sum(0)`` for i > center and
    ``-b[i:center].sum(0)`` for i < center, both summed outward from
    ``center``, whose own row is zero."""
    out = np.zeros((len(b) + 1,) + b.shape[1:])
    np.cumsum(b[center:], axis=0, out=out[center + 1:])
    below = out[:center][::-1]
    np.cumsum(b[:center][::-1], axis=0, out=below)
    np.negative(below, out=below)
    return out


def _spread_adjoint(q, center):
    """``T.T @ q`` for the T of ``_spread``: row k is ``q[k + 1:].sum(0)``
    for k >= center and ``-q[:k + 1].sum(0)`` for k < center."""
    out = np.empty((len(q) - 1,) + q.shape[1:])
    np.cumsum(q[:center], axis=0, out=out[:center])
    np.negative(out[:center], out=out[:center])
    np.cumsum(q[center + 1:][::-1], axis=0, out=out[center:][::-1])
    return out


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
    vt *= inv[:, None]
    return vt.T @ u.T


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


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's BLAS on one thread, then restore the count.

    The setting is process-wide, so every thread's BLAS calls run on one
    thread while the body runs, and two bodies that overlap in different
    threads can leave it at one. With a BLAS whose thread count cannot
    be set this way (no OpenBLAS setter resolves), the body runs as is.
    """
    get_threads, set_threads = _blas_thread_functions()
    if set_threads is None:
        yield
        return
    count = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(count)


@functools.cache
def _blas_thread_functions():
    """OpenBLAS's thread-count getter and setter as numpy loaded it, or
    ``(None, None)``.

    Symbols are looked up through numpy's linalg extension, whose handle
    also searches the libraries it links, under each name OpenBLAS builds
    export (plain or ``scipy_`` prefixed, LP64 or ``64_`` suffixed).
    """
    library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            getter = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            setter = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None, None


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

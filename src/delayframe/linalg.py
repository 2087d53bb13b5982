"""Dense linear algebra helpers with deterministic conventions.

Thin wrappers around LAPACK (via numpy). All routines validate their
inputs and raise errors from the shared taxonomy instead of letting numpy
exceptions leak to callers.

``thin_svd`` needs only a few leading triplets of a matrix that is much
wider than it is tall (or the transpose), so it works on the short side:
it forms the Gram matrix ``a @ a.T``, takes its leading eigenvectors by
block subspace iteration (``eigh`` only of a block of rank + 4 Ritz
vectors), and refines them with Rayleigh-Ritz passes on ``a`` itself.
Each pass orthonormalizes its long product ``h.T @ u`` in place, by
Gram-Schmidt applied twice (``_orthonormalize``), and rotates it into
the right basis in place: that basis is the one factor that grows with
the data, and a pass holds one copy of it.
A wide Hankel window (``a[i, j] = x[i + j]`` with no more rows than
columns, recognized by its equal strides, such as a
``sliding_window_view``) is never formed: its three products come from
the series, the Gram matrix by the displacement recurrence and the
products with thin matrices as correlations (the structured SSA products
of Korobeynikov, 2010), each taken as blocked matrix products on
overlapping rows of the series, a few rows at a time. Given ``center``,
it factorizes ``a - a[center]`` without forming it either. Any other
matrix takes the same products as plain matrix products. That includes
a window with more delays than columns: it is copied (fewer than
delays**2 floats), centered in place by an exact row subtraction, and
its short-side Gram matrix is one BLAS product.
Squaring the matrix squares its condition number, so one pass is enough
only when the rank-th Gram eigenvalue exceeds ``1e-12`` times the
largest (sigma_rank / sigma_1 above about 1e-6). Below that floor the
passes repeat, as subspace iteration on the same products (Halko,
Martinsson and Tropp, SIAM Review 2011, section 4.5), until every pair's
residual is at rounding level or eight passes have run. The input is
scaled by a power of two first, so no product overflows and the factors
keep their bits.

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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DataError,
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

# _correlate folds the series into overlapping rows of _FOLD outputs (or
# kernel values) each and copies _CHUNK of them at a time, so its
# matrix products are BLAS-3 while its temporaries stay small: the
# Toeplitz matrix of a kernel grows with _FOLD, and a fit's traced peak
# must stay below an eighth of its window.
_FOLD = 16
_CHUNK = 32

# Rows of the long right basis that _ritz_pass rotates, and
# _largest_residual and the fit's residual (models._assemble) sum, at a time.
_BLOCK_ROWS = 4096

# pseudo_inverse treats singular values below this fraction of sigma_1 as
# zero.
_PINV_RTOL = 1e-12


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

    With ``center`` given, the matrix factorized is ``a - a[center]``, row
    ``center`` subtracted from every row: in place in a matrix's working
    copy, or inside the products of a wide window, which is never formed.

    The factors come from the short side's Gram matrix: with ``h`` the
    wide orientation of the (centered) matrix (``a`` itself, or ``a.T``
    when ``a`` is tall), the leading eigenvectors of ``h @ h.T``
    (``_leading_eigenpairs``) give the left basis ``u``, then the product
    ``h.T @ u``, orthonormalized in place (``_orthonormalize``), is the
    trial basis ``y`` for the right vectors, and the SVD of the small
    matrix ``h @ y`` gives the singular values and rotates both bases (one
    Rayleigh-Ritz pass). When
    the rank-th Gram eigenvalue is at most ``1e-12`` times the largest,
    the squared spectrum cannot resolve the trailing pairs, and the pass
    repeats from the new ``u`` until every pair has
    ``|h.T @ u_j - sigma_j v_j| <= eps * sigma_1 * sqrt(max(a.shape))``,
    or eight passes have run. When ``a`` is a wide Hankel window (equal
    strides, no more rows than columns), the products come from its series
    (``_window_products``) and ``a`` is never formed; finiteness is then
    checked on the series' samples. A window with more rows than columns
    is copied and factorized as a matrix, like any other. The copy, or the
    series, is scaled by a power of two so its largest magnitude lies in
    [0.5, 1): no product overflows, and the singular values scale back
    exactly. They never exceed those of the matrix.

    Each singular pair is flipped so the largest-magnitude entry of its
    left vector is positive. This pins the decomposition itself, not just
    the subspaces, so repeated runs agree entry for entry. Both factors
    are C-contiguous and are returned without a copy.
    """
    a = _as_2d(a, "matrix")
    tall = a.shape[0] > a.shape[1]
    series = None if tall else _window_series(a)
    _check_finite(a if series is None else series, "matrix")
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
    # _scale works in place, so a matrix is copied; a zero one stays zero.
    values = a.copy(order="K") if series is None else series
    exponent = _scale(values) or 0
    try:
        if series is None:
            products = _matrix_products(values, center, tall)
        else:
            products = _window_products(values, len(a), center)
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
    return SvdTriple(u=u, sigma=np.ldexp(s, exponent), v=v)


def _gram_ritz_svd(gram, h_t_times, h_times, rank, length):
    """Leading ``(u, sigma, v)`` of the wide orientation ``h``, seen only
    through its Gram matrix and the maps ``q -> h.T @ q``, ``y -> h @ y``.

    The first pass starts from the Gram matrix's ``rank`` leading
    eigenvectors q (``_leading_eigenpairs``), its trial basis the product
    ``h.T @ q`` orthonormalized in place. When the ratio of its Ritz
    values theta_rank / theta_1 is above ``_GRAM_FLOOR``, that pass is
    returned. Below it, each pass's residual product ``h.T @ u`` is
    checked against ``eps * sigma_1 * sqrt(length)`` and, if it misses,
    is orthonormalized in place to start the next pass, up to
    ``_MAX_PASSES`` passes. Any orthonormal basis of the product's span
    gives the same Ritz triple up to rounding.
    """
    theta, q = _leading_eigenpairs(gram, rank)
    u, s, v = _ritz_pass(_orthonormalize(h_t_times(q)), h_times)
    if theta[-1] > _GRAM_FLOOR * theta[0]:
        return u, s, v
    tol = np.finfo(float).eps * math.sqrt(length)
    for _ in range(_MAX_PASSES - 1):
        p = h_t_times(u)
        if _largest_residual(p, s, v) <= tol * s[0]:
            break
        u, s, v = _ritz_pass(_orthonormalize(p), h_times)
    return u, s, v


def _leading_eigenpairs(gram, rank):
    """The ``rank`` largest eigenvalues of the symmetric ``gram``,
    nonincreasing, and their eigenvectors, by block subspace iteration
    with Rayleigh-Ritz (Halko, Martinsson and Tropp, SIAM Review 2011,
    section 4.5).

    The block holds ``b = min(m, rank + _OVERSAMPLE)`` columns, m the order
    of ``gram``. It starts from b evenly spaced columns of ``gram``,
    orthonormalized in place (``_orthonormalize``), or from the identity
    when b = m. Each step forms ``z = gram @ q`` and takes ``eigh`` of
    ``q.T @ z``; it stops once each of the ``rank`` leading Ritz pairs
    (theta_j, y_j) meets
    ``|gram @ y_j - theta_j y_j| <= sqrt(m) * eps * theta_1``, else takes
    ``q = _orthonormalize(z)``. A block that has not met it after
    ``_EIG_BUDGET`` steps widens to the identity, whose Rayleigh-Ritz step
    is ``eigh(gram)`` itself, bit for bit.
    """
    m = len(gram)
    b = min(m, rank + _OVERSAMPLE)
    if b == m:
        q = np.eye(m)
    else:
        q = _orthonormalize(gram[:, np.arange(b) * (m - 1) // (b - 1)])
    tol = np.finfo(float).eps * math.sqrt(m)
    for step in itertools.count(1):
        z = gram @ q
        w, s = np.linalg.eigh(q.T @ z)
        theta, s = w[:-rank - 1:-1], s[:, :-rank - 1:-1]
        vectors = q @ s
        if (q.shape[1] == m
                or _largest_residual(z @ s, theta, vectors) <= tol * theta[0]):
            return theta, vectors
        q = _orthonormalize(z) if step < _EIG_BUDGET else np.eye(m)


def _ritz_pass(y, h_times):
    """One Rayleigh-Ritz pass on the orthonormal right trial basis ``y``.

    ``y`` is overwritten with the new right vectors ``y @ wt.T`` and
    returned as ``v``. Each row is rotated on its own, so the rotation
    runs over blocks of ``_BLOCK_ROWS`` rows and no temporary has the
    length of ``y``. With ``y`` the product ``h.T @ u`` orthonormalized
    in place (``_orthonormalize``), a pass holds one long basis.
    """
    u, s, wt = np.linalg.svd(h_times(y), full_matrices=False)
    for start in range(0, len(y), _BLOCK_ROWS):
        block = y[start:start + _BLOCK_ROWS]
        block[...] = block @ wt.T
    return u, s, y


def _orthonormalize(p):
    """Overwrite the tall, thin ``p`` with orthonormal columns spanning its
    columns, and return it.

    Classical Gram-Schmidt with one reorthogonalization, CGS2 ("twice is
    enough": Giraud, Langou and Rozloznik, 2005), one column at a time.
    Column j is scaled by a power of two so its largest magnitude lies in
    [0.5, 1), so its squared norm neither overflows nor underflows; then
    it is projected off columns 0..j-1 twice (``_project_twice``), and
    scaled again and normalized. A column that is zero, or that the
    second projection shrinks to half its length or less (Kahan and
    Parlett's test), lies in the span of the earlier ones. It is replaced
    by the coordinate vector of the row the earlier columns weigh least,
    projected off them twice. So the columns come out orthonormal
    whatever the rank of ``p``, as LAPACK's Q does, and without a
    floating-point warning. The temporaries are a few vectors of ``p``'s
    length.
    """
    for j in range(p.shape[1]):
        w, q = p[:, j], p[:, :j]
        if _scale(w) is not None:
            first, second = _project_twice(w, q)
            if second > 0.5 * first and _scale(w) is not None:
                w /= math.sqrt(float(w @ w))
                continue
        w[:] = 0.0
        w[np.argmin(np.einsum("ij,ij->i", q, q))] = 1.0
        w /= _project_twice(w, q)[1]
    return p


def _project_twice(w, q):
    """Project ``w`` off the orthonormal columns ``q`` twice, in place: the
    column step of CGS2. Return the norm of ``w`` after each projection."""
    w -= q @ (q.T @ w)
    first = math.sqrt(float(w @ w))
    w -= q @ (q.T @ w)
    return first, math.sqrt(float(w @ w))


def _scale(w):
    """Scale ``w`` in place by a power of two so its largest magnitude lies
    in [0.5, 1), exactly, and return the exponent removed (the input is
    ``w * 2**exponent``); None, with ``w`` left as it is, when it is zero."""
    top = max(float(w.max()), -float(w.min()))
    if top == 0.0:
        return None
    exponent = math.frexp(top)[1]
    np.ldexp(w, -exponent, out=w)
    return exponent


def _largest_residual(p, s, v):
    """``max_j |p_j - s_j v_j|``, summed over blocks of ``_BLOCK_ROWS``
    rows, so no temporary has the length of ``v``."""
    squares = np.zeros(len(s))
    for start in range(0, len(v), _BLOCK_ROWS):
        r = np.multiply(v[start:start + _BLOCK_ROWS], s)
        np.subtract(p[start:start + _BLOCK_ROWS], r, out=r)
        squares += np.einsum("ij,ij->j", r, r)
    return math.sqrt(float(np.max(squares)))


def _matrix_products(h, center, tall):
    """``_gram_ritz_svd``'s products for a matrix held in memory, ``h``,
    which is centered in place."""
    if center is not None:
        h -= h[center].copy()
    if tall:
        h = h.T
    return h @ h.T, lambda q: h.T @ q, lambda y: h @ y


def _window_series(h):
    """The series ``x`` of a Hankel window ``h[i, j] = x[i + j]``, else None.

    Equal strides make ``h`` such a window, whichever way it runs, sliced
    or reversed; ``thin_svd`` asks only of a wide ``h``. A one-row matrix
    takes the matrix products: centered, its window of differences would
    have no rows.
    """
    if h.shape[0] < 2 or h.strides[0] != h.strides[1]:
        return None
    return np.concatenate([h[:, 0], h[-1, 1:]])


def _window_products(x, rows, center):
    """``_gram_ritz_svd``'s products for the wide Hankel window ``h`` of the
    series ``x``, with ``rows`` rows, from ``x`` alone.

    Uncentered, ``h`` is ``hankel(x)``. Centered on row c, it is
    ``h = T @ hankel(diff(x))``, T the ±1 prefix-sum matrix running out
    from row c (``_spread``): no sample is subtracted from a distant one,
    so an offset in ``x`` costs no accuracy.
    """
    if center is None:
        return (_hankel_gram(x, rows), lambda q: _correlate(x, q),
                lambda y: _correlate(x, y))
    d = np.diff(x)
    gram = _spread(_spread(_hankel_gram(d, rows - 1), center).T, center)
    return (gram, lambda q: _correlate(d, _spread_adjoint(q, center)),
            lambda y: _spread(_correlate(d, y), center))


def _correlate(x, b):
    """``out[t] = sum_s x[t + s] * b[s]`` for each column of ``b``: that is
    ``hankel(x) @ b`` or ``hankel(x).T @ b``, whichever fits ``b``'s rows.

    Both run as matrix products on the fold of ``x``: row a of it is
    ``x[aP : aP + P + w - 1]``, P = ``_FOLD`` and w the shorter of the
    kernel and the output, with ``x`` padded by zeros to whole rows. The
    rows overlap, so the fold is never formed; ``_CHUNK`` of its rows at
    a time are copied and multiplied. A kernel no longer than the output
    gives P outputs per fold row: the fold times the banded Toeplitz
    matrix of ``b``, (P + w - 1) x P*k, whose column (p, j) is column j
    of ``b`` moved down by p rows. A longer kernel, viewed as rows of P*k
    values, is summed against the fold as ``fold.T @ b``, chunk by chunk,
    into one (P + w - 1) x P*k matrix M; output t is then the sum over p
    of ``M[t + p, (p, j)]``. Both sum in another order than a dot product
    per output does, so the last bits differ from ``np.correlate``'s.
    """
    length, k = b.shape
    n = len(x) - length + 1
    short = length <= n
    width = _FOLD + min(length, n) - 1
    rows = -(-max(length, n) // _FOLD)
    padded = np.zeros((rows - 1) * _FOLD + width)
    padded[:len(x)] = x
    fold = sliding_window_view(padded, width)[::_FOLD]
    chunk = np.empty((min(_CHUNK, rows), width))
    if short:
        toeplitz = np.zeros((width, _FOLD, k))
        for p in range(_FOLD):
            toeplitz[p:p + length, p] = b
        toeplitz = toeplitz.reshape(width, _FOLD * k)
        out = np.empty((rows * _FOLD, k))
        folded = out.reshape(rows, _FOLD * k)
        for a in range(0, rows, _CHUNK):
            m = min(_CHUNK, rows - a)
            np.copyto(chunk[:m], fold[a:a + m])
            np.matmul(chunk[:m], toeplitz, out=folded[a:a + m])
        return out[:n]
    kernel = np.zeros((len(chunk) * _FOLD, k))
    total = np.zeros((width, _FOLD * k))
    part = np.empty_like(total)
    for a in range(0, rows, _CHUNK):
        m = min(_CHUNK, rows - a)
        np.copyto(chunk[:m], fold[a:a + m])
        taken = b[a * _FOLD:(a + m) * _FOLD]
        kernel[:len(taken)] = taken
        kernel[len(taken):] = 0.0
        np.matmul(chunk[:m].T, kernel[:m * _FOLD].reshape(m, _FOLD * k),
                  out=part)
        total += part
    total = total.reshape(width, _FOLD, k)
    out = total[:n, 0].copy()
    for p in range(1, _FOLD):
        out += total[p:p + n, p]
    return out


def _hankel_gram(x, rows):
    """``h @ h.T`` for the ``rows``-row Hankel matrix ``h[i, j] = x[i + j]``.

    Row 0 is one correlation; each later row of the upper triangle follows
    from the one above by the displacement recurrence
    ``G[i+1, j+1] = G[i, j] - x_i x_j + x_{i+n} x_{j+n}``, n the column count.
    """
    n = len(x) - rows + 1
    gram = np.empty((rows, rows))
    gram[0] = gram[:, 0] = _correlate(x, x[:n, None])[:, 0]
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
    # LAPACK's geev returns each eigenvector with unit norm.
    return Spectrum(eigenvalues=w[order], eigenvectors=vecs[:, order])


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


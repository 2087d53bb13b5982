import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from delayframe import geometry
from delayframe.errors import DegenerateInputError, ParameterError
from delayframe.geometry import (
    FrenetApparatus,
    analytic_curvatures_gram,
    central_difference,
    curvature_matrix_from_frame,
    curvatures_from_model,
    curvatures_from_singular_values,
    derivative_stack,
    discrete_orthopoly,
    frenet_frame,
)


def test_central_difference_exact_on_linear():
    v = 3.0 * np.arange(20.0) + 1.0
    d = central_difference(v, dt=0.5)
    np.testing.assert_allclose(d, 6.0, atol=1e-12)
    assert d.shape == (18,)


def test_central_difference_second_order():
    t = np.linspace(0.0, 2.0, 2001)
    errs = []
    for step in (1, 2):
        tt = t[::step]
        d = central_difference(np.sin(tt), dt=tt[1] - tt[0])
        errs.append(np.max(np.abs(d - np.cos(tt[1:-1]))))
    assert errs[1] / errs[0] > 3.5  # halving dt quarters the error


def test_central_difference_validation():
    with pytest.raises(ParameterError):
        central_difference(np.ones(2), dt=0.1)
    with pytest.raises(ParameterError):
        central_difference(np.ones(5), dt=0.0)


def test_derivative_stack_alignment():
    t = np.linspace(0.0, 6.0, 6001)
    dt = t[1] - t[0]
    d1, d2 = derivative_stack(np.sin(t), dt, 2)
    assert d1.shape == d2.shape == (len(t) - 4,)
    inner = t[2:-2]
    np.testing.assert_allclose(d1, np.cos(inner), atol=5e-7)
    np.testing.assert_allclose(d2, -np.sin(inner), atol=5e-6)


def test_derivative_stack_order_bounds():
    with pytest.raises(ParameterError):
        derivative_stack(np.ones(50), 0.1, 0)
    with pytest.raises(ParameterError):
        derivative_stack(np.ones(5), 0.1, 3)  # would leave nothing


def test_frenet_frame_orthonormal_rows(rng):
    ds = [rng.standard_normal(40) for _ in range(4)]
    app = frenet_frame(ds)
    q = np.vstack(app.frame)
    np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-10)
    assert app.dropped == ()
    assert app.speed == pytest.approx(np.linalg.norm(ds[0]))


def test_frenet_frame_straight_line_drops_higher_terms():
    d1 = np.full(25, 2.0)
    zero = np.zeros(25)
    app = frenet_frame([d1, zero, zero])
    assert app.rank == 1
    assert app.dropped == (1, 2)
    np.testing.assert_allclose(app.frame[0], d1 / np.linalg.norm(d1))


def test_frenet_frame_drops_derivatives_past_the_dimension():
    app = frenet_frame([[2.0, 0.0], [1.0, 1.0], [3.0, -2.0]])
    assert app.dropped == (2,)
    np.testing.assert_allclose(np.vstack(app.frame), np.eye(2), rtol=0.0, atol=1e-15)


def test_frenet_frame_reports_zero_and_dependent_inputs(rng):
    d1, d3 = rng.standard_normal(30), rng.standard_normal(30)
    app = frenet_frame([d1, np.zeros(30), d3, 2.0 * d1 - d3])
    # indices refer to the caller's list, and the frame is that of the
    # stack refactored without the dropped columns
    assert app.dropped == (1, 3)
    kept = frenet_frame([d1, d3])
    assert kept.dropped == ()
    for got, want in zip(app.frame, kept.frame, strict=True):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_frenet_frame_spans_its_inputs_and_reports_planted_drops(seed):
    """Random stacks with zero and dependent columns planted among them."""
    gen = np.random.default_rng(seed)
    length = int(gen.integers(6, 12))
    columns, planted = [gen.standard_normal(length)], []
    for i in range(1, int(gen.integers(2, 7))):
        kind = gen.integers(3)
        if kind == 0:
            columns.append(gen.standard_normal(length))
            continue
        planted.append(i)
        if kind == 1:
            columns.append(np.zeros(length))
        else:
            columns.append(np.column_stack(columns) @ gen.standard_normal(i))
    app = frenet_frame(columns)
    q = np.vstack(app.frame)
    np.testing.assert_allclose(q @ q.T, np.eye(app.rank), rtol=0.0, atol=1e-12)
    for v in columns:
        resid = v - q.T @ (q @ v)
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(v)
    assert app.dropped == tuple(planted)


def _householder_frame(derivatives):
    """The orthonormalization geometry ran before its CGS2 pass, kept as
    an oracle: LAPACK's QR of the stack (each column scaled by a power of
    two), factorized again without each dropped column."""
    columns = np.column_stack(derivatives)
    _, exponents = np.frexp(np.max(np.abs(columns), axis=0))
    columns = np.ldexp(columns, -exponents)
    norms = np.sum(columns**2, axis=0)
    kept = list(range(columns.shape[1]))
    while True:
        q, r = np.linalg.qr(columns[:, kept])
        # A column past the vector length has no pivot: it is dependent.
        pivots = np.pad(np.diag(r), (0, r.shape[1] - r.shape[0]))
        dependent = np.flatnonzero(pivots**2 <= geometry._PIVOT_TOL * norms[kept])
        if dependent.size == 0:
            break
        del kept[dependent[0]]
    dropped = tuple(i for i in range(columns.shape[1]) if i not in kept)
    return q * np.sign(pivots), np.ldexp(np.abs(pivots), exponents[kept]), dropped


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=10), st.data())
def test_orthonormalize_matches_the_householder_oracle(seed, length, data):
    """Stacks of new directions, zero columns and combinations of earlier
    columns, possibly more of them than samples, each column scaled by
    10^-170 to 10^155: CGS2 drops the same columns as the oracle and finds
    the same pivots and frame."""
    gen = np.random.default_rng(seed)
    kinds = data.draw(st.lists(st.sampled_from(["new", "zero", "combo"]),
                               min_size=1, max_size=12))
    basis = np.linalg.qr(gen.standard_normal((length, length)))[0]
    # Each column is a direction in ``unscaled`` times its scale.
    unscaled, columns, planted = [], [], []
    for i, kind in enumerate(kinds):
        rank = len(columns) - len(planted)
        if kind == "new" and rank < length:
            # Pivot at least about a third of the norm: far from dependent.
            d = basis[:, rank] + basis[:, :rank] @ (0.3 * gen.standard_normal(rank))
        elif kind == "new":
            d = gen.standard_normal(length)
            planted.append(i)
        else:
            d = np.zeros(length)
            if kind == "combo" and columns:
                d = np.column_stack(unscaled) @ gen.standard_normal(len(columns))
            planted.append(i)
        unscaled.append(d)
        columns.append(d * 10.0 ** data.draw(st.floats(-170.0, 155.0)))
    q, pivots, dropped = geometry._orthonormalize(columns)
    oracle_q, oracle_pivots, oracle_dropped = _householder_frame(columns)
    assert dropped == oracle_dropped == tuple(planted)
    np.testing.assert_allclose(pivots, oracle_pivots, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1])), initial=0.0) <= 1e-13
    np.testing.assert_allclose(q, oracle_q, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dt", [0.01, 0.001])
def test_frame_and_gram_curvatures_agree_on_a_sampled_planar_circle(dt):
    # The differenced d3 of a single sine is -d1 up to rounding amplified
    # by 1/dt^3; both functions must call it dependent.
    t = np.arange(0.0, 2.0 * np.pi, dt)
    ds = derivative_stack(np.sin(t), dt, 4)
    assert frenet_frame(ds).dropped[:1] == (2,)
    with pytest.raises(DegenerateInputError, match="kappa_2"):
        analytic_curvatures_gram(*ds)


def test_frenet_frame_zero_first_derivative():
    with pytest.raises(DegenerateInputError, match="first derivative"):
        frenet_frame([np.zeros(10), np.ones(10)])


def test_curvature_matrix_recovers_skew_generator():
    k0 = np.array([
        [0.0, 1.3, 0.0, 0.0],
        [-1.3, 0.0, 0.7, 0.0],
        [0.0, -0.7, 0.0, 0.4],
        [0.0, 0.0, -0.4, 0.0],
    ])
    gen = np.random.default_rng(3)
    q0 = np.linalg.qr(gen.standard_normal((8, 8)))[0][:, :4].T

    def frames(dt, count):
        return [
            FrenetApparatus(frame=tuple(expm(k0 * (k * dt)) @ q0), speed=1.0)
            for k in range(count)
        ]

    est = curvature_matrix_from_frame(frames(0.005, 9), 0.005)
    np.testing.assert_allclose(est.k_matrix, k0, atol=5e-5)
    np.testing.assert_allclose(est.k_matrix, -est.k_matrix.T, atol=0.0)
    # The discarded symmetric part is the O(dt) term, so it halves with dt.
    coarse = curvature_matrix_from_frame(frames(0.01, 9), 0.01)
    ratio = coarse.symmetric_residual / est.symmetric_residual
    assert 1.7 < ratio < 2.3


def test_curvature_matrix_needs_two_frames():
    app = frenet_frame([np.arange(1.0, 6.0)])
    with pytest.raises(ParameterError):
        curvature_matrix_from_frame([app], 0.1)


def test_gram_curvatures_planar_circle_degenerate():
    # A single sine traces a planar circle in function space, so the
    # third derivative is dependent and kappa_2 does not exist.
    t = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    with pytest.raises(DegenerateInputError, match="kappa_2") as info:
        analytic_curvatures_gram(np.cos(t), -np.sin(t), -np.cos(t), np.sin(t))
    partial = info.value.partial
    assert len(partial) == 1
    assert partial[0] == pytest.approx(1.0 / np.linalg.norm(np.cos(t)), rel=1e-9)


def _three_tone_derivatives(t, scale):
    """Exact d1..d4 of sin t + sin 2t + sin(3t)/3 in a time unit 1/scale
    of the original one, so d_k carries a factor scale**k."""
    return [
        scale**k * sum(a * m**k * np.sin(m * t + k * np.pi / 2)
                       for m, a in ((1, 1.0), (2, 1.0), (3, 1.0 / 3.0)))
        for k in range(1, 5)
    ]


def test_gram_curvatures_do_not_depend_on_the_time_unit():
    t = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    base = analytic_curvatures_gram(*_three_tone_derivatives(t, 1.0))
    for scale in (1e-4, 1e-3, 1e2, 1e4):
        got = analytic_curvatures_gram(*_three_tone_derivatives(t, scale))
        np.testing.assert_allclose(got, base, rtol=1e-9, atol=0.0)


def test_gram_curvatures_homogeneity(rng):
    ds = [rng.standard_normal(60) for _ in range(4)]
    base = analytic_curvatures_gram(*ds)
    scaled = analytic_curvatures_gram(*[2.0 * d for d in ds])
    for a, b in zip(base, scaled):
        assert b == pytest.approx(a / 2.0, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e155])
def test_gram_curvatures_and_frame_at_extreme_magnitudes(rng, scale):
    # Squared norms of these derivatives underflow (1e-170) or overflow
    # (1e155), and at 1e-160 the QR's products fall into subnormals.
    ds = [rng.standard_normal(20) for _ in range(4)]
    base = np.array(analytic_curvatures_gram(*ds))
    scaled = [scale * d for d in ds]
    got = np.array(analytic_curvatures_gram(*scaled))
    np.testing.assert_allclose(got, base / scale, rtol=1e-12, atol=0.0)
    frame = frenet_frame(scaled)
    assert frame.dropped == ()
    assert frame.speed == pytest.approx(scale * np.linalg.norm(ds[0]), rel=1e-12)


def test_sv_curvature_closed_form():
    # i = 2 in the coefficient expression gives a_1 = (2/3)^2 * 15/3 = 20/9.
    kappas = curvatures_from_singular_values([1.0, 1.0, 1.0])
    assert kappas[0] == pytest.approx(math.sqrt(20.0 / 9.0), rel=1e-12)


def test_sv_curvature_homogeneity():
    sigma = [5.0, 3.0, 2.0, 1.0]
    base = curvatures_from_singular_values(sigma)
    scaled = curvatures_from_singular_values([2.0 * s for s in sigma])
    for a, b in zip(base, scaled):
        assert b == pytest.approx(a / 2.0, rel=1e-12)


def test_sv_curvature_vanishing_second_sigma():
    kappas = curvatures_from_singular_values([1.0, 1e-14])
    assert kappas[0] < 1e-13


def test_sv_curvature_validation():
    with pytest.raises(ParameterError):
        curvatures_from_singular_values([1.0, -1.0])
    with pytest.raises(ParameterError):
        curvatures_from_singular_values([1.0, 2.0])
    with pytest.raises(ParameterError):
        curvatures_from_singular_values([1.0])


@pytest.mark.parametrize("delays", [11, 41, 201])
def test_orthopoly_orthonormal(delays):
    degree = min(5, (delays - 1) // 2)
    p = discrete_orthopoly(delays, degree)
    np.testing.assert_allclose(p.T @ p, np.eye(degree), atol=1e-12)


def test_orthopoly_degrees_and_grid():
    basis = discrete_orthopoly(11, 3)
    assert basis.shape == (11, 3)
    # p1 is odd, p2 is even about the grid center
    np.testing.assert_allclose(basis[::-1, 0], -basis[:, 0])
    np.testing.assert_allclose(basis[::-1, 1], basis[:, 1])


def test_orthopoly_validation():
    with pytest.raises(ParameterError):
        discrete_orthopoly(10, 3)  # even
    with pytest.raises(ParameterError, match="half-width"):
        discrete_orthopoly(41, 21)
    with pytest.raises(ParameterError):
        discrete_orthopoly(5, 4)  # half-width 2 < degree


@pytest.mark.parametrize("delays", [11, 41, 201])
def test_orthopoly_matches_qr_oracle(delays):
    # Householder QR of the scaled monomials n/p, ..., (n/p)^5 with R's
    # diagonal made positive: the same span and the same sign convention.
    p = (delays - 1) // 2
    n = np.arange(-p, p + 1) / p
    q, r = np.linalg.qr(np.column_stack([n**k for k in range(1, 6)]))
    oracle = q * np.sign(np.diag(r))
    np.testing.assert_allclose(
        discrete_orthopoly(delays, 5), oracle, rtol=0.0, atol=1e-12
    )


@pytest.mark.parametrize("delays, degree", [(11, 5), (41, 8), (201, 30), (401, 60)])
def test_orthopoly_keeps_the_bits_of_its_inline_recurrence(delays, degree):
    # The recurrence as it was written before it shared linalg's CGS2
    # step: the same operations in the same order.
    p = (delays - 1) // 2
    grid = np.arange(-p, p + 1, dtype=float)
    q = np.empty((delays, degree))
    q[:, 0] = grid / np.linalg.norm(grid)
    for k in range(1, degree):
        v = grid * q[:, k - 1]
        for _ in range(2):
            v -= q[:, :k] @ (q[:, :k].T @ v)
        q[:, k] = v / np.linalg.norm(v)
    assert np.array_equal(discrete_orthopoly(delays, degree), q)


@pytest.mark.parametrize("delays, degree", [
    (41, 8), (101, 50), (201, 30), (401, 60), (401, 200),
])
def test_orthopoly_high_degree_orthonormal(delays, degree):
    # Gram-Schmidt of the raw monomials loses orthogonality at (201, 30)
    # and finds them dependent at (401, 60). The recurrence stays within
    # 1e-15; with one projection instead of two it drifts to 2e-14 at
    # (401, 60) and 9e-14 at (401, 200).
    q = discrete_orthopoly(delays, degree)
    np.testing.assert_allclose(q.T @ q, np.eye(degree), rtol=0.0, atol=1e-14)


def test_curvatures_from_model_reads_superdiagonal():
    a = np.array([
        [0.0, 2.0, 0.0],
        [-2.0, 0.0, 6.0],
        [0.0, -6.0, 0.0],
    ])
    est = curvatures_from_model(a, speed=2.0)
    np.testing.assert_allclose(est.k_matrix, a / 2.0)
    assert est.curvatures == (1.0, 3.0)


def test_curvatures_from_model_validates_speed():
    with pytest.raises(ParameterError):
        curvatures_from_model(np.eye(3), speed=0.0)

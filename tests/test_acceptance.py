"""End-to-end acceptance checks.

Each test prints one verdict line (ACCEPTANCE <n> <name>: PASS/FAIL) so a
plain ``pytest tests/test_acceptance.py -v -s`` reads as a checklist. The
checks pin the headline numbers of the method: curvature recovery on the
two-tone signal, band structure of the fitted generators, polynomial
singular vectors, the sampling sweeps, short-data spectra, stability, the
delay-derivative ratio limit, and oracle equivalence of the regression.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm

from delayframe import diagnostics
from delayframe.cli import main
from delayframe.embedding import TimeSeries, build_hankel, center_hankel
from delayframe.geometry import (
    FrenetApparatus,
    curvature_matrix_from_frame,
    discrete_orthopoly,
)
from delayframe.linalg import thin_svd
from delayframe.models import FitConfig, fit
from delayframe.scenarios import (
    CURVATURE_REFERENCE,
    SCENARIOS,
    SPECTRA_CONFIGS,
    monotone_with_tolerance,
)

# Reference dynamics matrices for the two-tone example, rounded to four
# significant digits; used purely as regression anchors for the scores.
HAVOK_MATRIX_REF = np.array([
    [-1.245e-3, 1.205e-2, 4.033e-6, 1.444e-7],
    [-1.224e-2, 3.529e-4, 4.458e-3, 2.283e-6],
    [-9.390e-4, -3.467e-3, 5.758e-4, 6.617e-3],
    [3.970e-4, -6.568e-4, -7.451e-3, 2.835e-4],
])
SHAVOK_MATRIX_REF = np.array([
    [-1.116e-5, 1.204e-2, -1.227e-5, 8.728e-8],
    [-1.204e-2, -1.269e-5, 4.458e-3, 4.650e-6],
    [2.053e-5, -4.458e-3, -4.897e-6, 6.617e-3],
    [-9.956e-8, -1.118e-7, -6.617e-3, -3.368e-6],
])


@contextmanager
def verdict(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def curvature_run():
    """The curvature scenario's payload and the seconds it took."""
    start = time.perf_counter()
    payload, _ = SCENARIOS["curvature"]()
    return payload, time.perf_counter() - start


def test_criterion_01_curvature_recovery(curvature_run):
    with verdict(1, "two-tone curvature recovery"):
        payload, elapsed = curvature_run
        for got, ref in zip(payload["analytic"], CURVATURE_REFERENCE):
            assert abs(got - ref) <= 5e-5
        assert elapsed < 5.0


def test_criterion_02_shavok_curvature_match(curvature_run):
    with verdict(2, "sHAVOK curvature match"):
        payload, _ = curvature_run
        shavok = payload["shavok"]
        super_diag = np.array(shavok["curvatures"])
        for got, ref in zip(super_diag, payload["analytic"]):
            assert abs(got - ref) <= 5e-4
        np.testing.assert_allclose(shavok["subdiagonal"], -super_diag, atol=2e-5)
        assert shavok["offband_max"] <= 5e-5


def test_criterion_03_structure_scores(two_tone_models):
    with verdict(3, "HAVOK vs sHAVOK structure"):
        havok = two_tone_models["havok"].a_continuous
        shavok = two_tone_models["shavok"].a_continuous
        assert (diagnostics.antisymmetry_score(shavok)
                < diagnostics.antisymmetry_score(havok))
        assert (diagnostics.tridiagonality_score(shavok)
                < diagnostics.tridiagonality_score(havok))
        # fixed regression references recomputed from the rounded matrices
        assert diagnostics.antisymmetry_score(HAVOK_MATRIX_REF) == (
            pytest.approx(9.2452723035e-02, rel=1e-8))
        assert diagnostics.tridiagonality_score(HAVOK_MATRIX_REF) == (
            pytest.approx(3.4221247991e-03, rel=1e-8))
        assert diagnostics.antisymmetry_score(SHAVOK_MATRIX_REF) == (
            pytest.approx(9.3571067307e-04, rel=1e-8))
        assert diagnostics.tridiagonality_score(SHAVOK_MATRIX_REF) == (
            pytest.approx(1.4228858140e-06, rel=1e-8))
        # the fitted matrices land on the same scores as the references
        assert diagnostics.antisymmetry_score(havok) == pytest.approx(
            9.245e-2, rel=2e-3)
        assert diagnostics.antisymmetry_score(shavok) == pytest.approx(
            9.357e-4, rel=2e-3)


def test_criterion_04_polynomial_basis(two_tone):
    with verdict(4, "polynomial basis"):
        p = discrete_orthopoly(41, 4).vectors
        np.testing.assert_allclose(p.T @ p, np.eye(4), atol=1e-10)
        centered = center_hankel(build_hankel(two_tone, 41))
        u = thin_svd(centered.matrix, 4).u
        cosines = np.abs(np.sum(p * u, axis=0))
        assert np.min(cosines) >= 0.999
        # without centering the leading singular vector is near-constant
        u1 = thin_svd(build_hankel(two_tone, 41).matrix, 4).u[:, 0]
        assert np.max(np.abs(u1 - np.mean(u1))) <= 0.01 * np.linalg.norm(u1)


def test_criterion_05_structure_sweep(tmp_path):
    with verdict(5, "structure monotonicity sweep"):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out-dir", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        dts = [row["dt"] for row in payload["dt_sweep"]]
        assert dts == [0.01, 0.005, 0.001, 0.0005]
        ns = [row["columns"] for row in payload["column_sweep"]]
        assert ns == [1001, 2001, 5001, 10001]
        for key in ("dt_sweep", "column_sweep"):
            scores = [row["antisymmetry"] for row in payload[key]]
            assert monotone_with_tolerance(scores, rel=0.05), (key, scores)


def test_criterion_06_interpolation_rescue():
    with verdict(6, "interpolation rescue"):
        payload, _ = SCENARIOS["interpolation"]()
        raw_score = payload["raw_antisymmetry"]
        new_score = payload["resampled_antisymmetry"]
        assert raw_score >= 2.0 * new_score, (raw_score, new_score)


def test_criterion_07_short_data_spectra():
    with verdict(7, "short-data eigenvalue fidelity"):
        payload, _ = SCENARIOS["short-spectra"]()
        assert list(payload) == list(SPECTRA_CONFIGS)
        for kind, row in payload.items():
            dist_h = row["havok_mean_distance"]
            dist_s = row["shavok_mean_distance"]
            assert dist_s < dist_h, (kind, dist_s, dist_h)


def test_criterion_08_stability():
    with verdict(8, "stability of short pendulum fits"):
        payload, _ = SCENARIOS["stability"]()
        max_re = {k: payload[k]["max_real_part"] for k in ("havok", "shavok")}
        # strict assertion: sHAVOK is no less stable
        assert max_re["shavok"] <= max_re["havok"], max_re
        assert payload["shavok"]["window_peak_over_initial"] <= 10.0
        peak = payload["havok"]["window_peak_over_initial"]
        if peak > 10.0:
            # recorded, not failed
            print(f"note: HAVOK window rollout peaked at "
                  f"{peak:.1f}x its initial norm")


def test_criterion_09_derivative_ratio_limit():
    with verdict(9, "delay-derivative ratio limit"):
        limit = 2.0 * math.sqrt(17.0 / 5.0)
        payload, _ = SCENARIOS["derivative-ratio"]()
        ratios = [row["ratio"] for row in payload["ratios"]]
        assert [row["columns"] for row in payload["ratios"]] == [
            10**3, 10**4, 10**5]
        assert abs(ratios[-1] - limit) <= 0.01 * limit, ratios


def test_criterion_10_oracle_equivalence():
    with verdict(10, "oracle equivalence"):
        gen = np.random.default_rng(1729)
        for _ in range(20):
            x = TimeSeries(t0=0.0, dt=0.05, values=gen.standard_normal(45))
            m = fit(x, FitConfig(delays=6, rank=4, centering=False,
                                 forcing=False))
            v1 = m.basis.v.T[:, :-1]
            v2 = m.basis.v.T[:, 1:]
            oracle = (v2 @ v1.T) @ np.linalg.inv(v1 @ v1.T)
            rel = (np.linalg.norm(m.a_discrete - oracle)
                   / np.linalg.norm(oracle))
            assert rel <= 1e-8

        k0 = np.array([
            [0.0, 1.3, 0.0, 0.0],
            [-1.3, 0.0, 0.7, 0.0],
            [0.0, -0.7, 0.0, 0.4],
            [0.0, 0.0, -0.4, 0.0],
        ])
        q0 = np.linalg.qr(gen.standard_normal((8, 8)))[0][:, :4].T

        def frame_error(dt):
            frames = [
                FrenetApparatus(frame=tuple(expm(k0 * (k * dt)) @ q0),
                                speed=1.0)
                for k in range(9)
            ]
            est = curvature_matrix_from_frame(frames, dt)
            return np.linalg.norm(est.k_matrix - k0)

        order = np.log2(frame_error(0.02) / frame_error(0.01))
        assert order >= 0.9, order

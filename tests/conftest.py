import numpy as np
import pytest

from delayframe import models, systems
from delayframe.linalg import SvdTriple


@pytest.fixture(scope="session")
def two_tone():
    """The sin(t) + sin(2t) series at dt=0.001, 10001 samples."""
    return systems.measure(systems.simulate(systems.preset("two_tone")), "x")


@pytest.fixture(scope="session")
def series_cache():
    """Lazy per-session cache of preset measurements.

    Unit tests that share a preset go through here so it is simulated at
    most once per run; the acceptance criteria run the ``scenarios``
    instead, which simulate their own presets.
    """
    cache = {}

    def get(name, observable=None):
        key = (name, observable)
        if key not in cache:
            cache[key] = systems.preset_series(name, observable)[0]
        return cache[key]

    return get


@pytest.fixture(scope="session")
def two_tone_models(two_tone):
    """Unforced rank-4 fits of the two-tone series, both methods."""
    out = {}
    for method in ("havok", "shavok"):
        cfg = models.FitConfig(delays=41, rank=4, method=method, forcing=False)
        out[method] = models.fit(two_tone, cfg)
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def dense_svd():
    """Reference factorization: LAPACK's full SVD, truncated to ``rank``,
    with thin_svd's sign convention (largest left entry positive). Like
    thin_svd, it factorizes ``a - a[center]`` when ``center`` is given."""

    def factor(a, rank, center=None):
        a = np.asarray(a, dtype=float)
        if center is not None:
            a = a - a[center]
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        u, s, v = u[:, :rank].copy(), s[:rank].copy(), vt[:rank].T.copy()
        for j in range(rank):
            if u[np.argmax(np.abs(u[:, j])), j] < 0.0:
                u[:, j] = -u[:, j]
                v[:, j] = -v[:, j]
        return SvdTriple(u=u, sigma=s, v=v)

    return factor

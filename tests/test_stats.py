"""The stdlib chi-square tail, checked against scipy, which is a test-only
dependency."""
import subprocess
import sys

import numpy as np
import pytest

from pagepark.stats import bernoulli_variance_range, chi_square_sf, proportion_estimate, wilson_interval


def test_chi_square_sf_matches_scipy():
    from scipy.stats import chi2  # imported here: the package itself must not load scipy

    dofs = np.arange(1, 201)
    xs = np.geomspace(1e-6, 1e5, 120)
    got = np.array([[chi_square_sf(float(x), int(d)) for x in xs] for d in dofs])
    want = chi2.sf(xs[None, :], dofs[:, None])
    # atol only forgives tails below the smallest normal double, where scipy
    # flushes to 0 and the log-space terms still give a subnormal
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=np.finfo(float).tiny)


def test_chi_square_sf_edges():
    assert chi_square_sf(1e7, 3) == 0.0
    assert chi_square_sf(1e7, 4) == 0.0
    assert chi_square_sf(0.0, 5) == 1.0
    assert chi_square_sf(2.0, 2) == pytest.approx(np.exp(-1.0), rel=1e-15)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)


def test_import_leaves_scipy_out():
    code = "import sys, pagepark, pagepark.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("hits,total", [(0, 2), (1, 2), (2, 2), (0, 1000), (3, 1000), (500, 1000), (1000, 1000)])
@pytest.mark.parametrize("z", [1.96, 4.0, 5.0])
def test_wilson_interval_inverts_the_score_test(hits, total, z):
    p = hits / total
    lo, hi = wilson_interval(p, total, z)
    assert 0.0 <= lo <= p <= hi <= 1.0
    assert hi - lo > 0.0  # never a point, even at 0 or total hits
    # each interior endpoint q solves |p - q| = z sqrt(q(1-q)/total)
    for q in (lo, hi):
        if 0.0 < q < 1.0:
            assert abs(p - q) == pytest.approx(z * np.sqrt(q * (1.0 - q) / total), rel=1e-9)
    assert (lo == 0.0) == (hits == 0) and (hi == 1.0) == (hits == total)


def test_wilson_interval_tends_to_wald():
    hits, total = 3 * 10**7, 10**8
    lo, hi = wilson_interval(hits / total, total, 4.0)
    wald = 4.0 * proportion_estimate(hits, total).stderr
    assert (hi - lo) / 2 == pytest.approx(wald, rel=1e-6)


def test_proportion_stderr_is_wald_without_floor():
    assert proportion_estimate(0, 10).stderr == 0.0
    assert proportion_estimate(10, 10).stderr == 0.0
    assert proportion_estimate(5, 10).stderr == pytest.approx(np.sqrt(0.025))


def test_bernoulli_variance_range():
    assert bernoulli_variance_range(0.1, 0.2) == pytest.approx((0.09, 0.16))
    assert bernoulli_variance_range(0.4, 0.9) == pytest.approx((0.09, 0.25))
    assert bernoulli_variance_range(0.7, 0.7) == pytest.approx((0.21, 0.21))

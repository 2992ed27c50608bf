"""The stdlib chi-square tail, checked against scipy, which is a test-only
dependency."""
import subprocess
import sys

import numpy as np
import pytest

from pagepark.stats import chi_square_sf


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

"""The stdlib chi-square tail, checked against scipy, which is a test-only
dependency, and the two checks against exact values: each passes on its
exact value, fails on a shift of a few standard errors, and never passes
vacuously on a sample with no spread."""
import math
import subprocess
import sys

import numpy as np
import pytest

from pagepark.core import SeedSpec
from pagepark.stats import (
    SampleStats,
    chi_square_sf,
    law_matches,
    proportion_estimate,
    within_stderr,
)


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


def wilson_interval(p: float, total: int, z: float) -> tuple[float, float]:
    """The z-sigma Wilson (1927) score interval of a proportion p observed in
    total trials, in closed form: {q : |p - q| <= z sqrt(q(1-q)/total)}."""
    z2 = z * z / total
    centre = (p + z2 / 2.0) / (1.0 + z2)
    half = z / (1.0 + z2) * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total))
    return (0.0 if p == 0.0 else centre - half), (1.0 if p == 1.0 else centre + half)


@pytest.mark.parametrize("hits,total", [(0, 2), (1, 2), (2, 2), (0, 1000), (3, 1000), (500, 1000), (1000, 1000)])
@pytest.mark.parametrize("z", [1.96, 4.0, 5.0])
def test_wilson_interval_inverts_the_score_test(hits, total, z):
    # within_stderr at the exact Bernoulli sd passes q iff q lies in the
    # z-sigma Wilson interval of p, which is never a point
    p = hits / total
    lo, hi = wilson_interval(p, total, z)
    assert 0.0 <= lo <= p <= hi <= 1.0 and hi - lo > 0.0

    def passes(q: float) -> bool:
        return within_stderr(p, q, math.sqrt(q * (1.0 - q) / total), z)[0]

    for q in np.linspace(0.0, 1.0, 2001):
        if min(abs(q - lo), abs(q - hi)) > 1e-9:
            assert passes(q) == (lo <= q <= hi), q
    for q, inward in ((lo, 1.0), (hi, -1.0)):
        if 0.0 < q < 1.0:
            assert passes(q + inward * 1e-9) and not passes(q - inward * 1e-9)


def test_proportion_stderr_is_wald_without_floor():
    assert proportion_estimate(0, 10).stderr == 0.0
    assert proportion_estimate(10, 10).stderr == 0.0
    assert proportion_estimate(5, 10).stderr == pytest.approx(np.sqrt(0.025))


def test_within_stderr_power():
    sample = SampleStats.from_samples(SeedSpec(5).generator().normal(3.0, 2.0, 10_000))
    assert within_stderr(sample.mean, 3.0, sample.stderr, 5.0)[0]
    for shift, ok in ((-4.0, True), (4.0, True), (-6.0, False), (6.0, False)):
        assert within_stderr(3.0 + shift * sample.stderr, 3.0, sample.stderr, 5.0)[0] == ok
    # no spread and stderr 0: the band is a point, passed only by a one-point law
    flat = SampleStats.from_samples([2.0, 2.0])
    assert within_stderr(flat.mean, 2.0, flat.stderr, 5.0)[0]
    assert not within_stderr(flat.mean, 2.0 + 1e-9, flat.stderr, 5.0)[0]


def test_wilson_contains_power():
    # a proportion against an exact q, at the exact Bernoulli sd: the score
    # test, which passes iff q lies in the Wilson interval of p
    q, total = 0.3, 10_000

    def proportion_ok(p: float, q: float) -> bool:
        return within_stderr(p, q, math.sqrt(q * (1.0 - q) / total), 4.0)[0]

    se = math.sqrt(q * (1.0 - q) / total)
    for shift, ok in ((2.0, True), (-3.9, True), (3.9, True), (-4.1, False), (4.1, False), (-6.0, False), (6.0, False)):
        assert proportion_ok(q + shift * se, q) == ok
    # all or no hits: the sample has no spread, but the exact law has, so
    # the band holds only probabilities near 0 or 1
    assert not proportion_ok(1.0, 0.99) and not proportion_ok(0.0, 0.01)
    assert proportion_ok(1.0, 0.9999) and proportion_ok(0.0, 0.0)


def test_law_matches_power():
    law = {0: 0.5, 1: 0.3, 2: 0.2}
    assert law_matches({0: 5000, 1: 3000, 2: 2000}, law)[0]
    shift = round(5 * math.sqrt(10_000 * 0.3 * 0.7))  # 5 standard errors of the count of 1
    assert not law_matches({0: 5000 - shift, 1: 3000 + shift, 2: 2000}, law)[0]
    assert not law_matches({1: 10_000}, law)[0]  # no spread
    # a value the law excludes gives p = 0, however rare it was
    assert law_matches({2: 10}, {2: 1.0}) == (True, "chi-square 0.000 on 0 dof, p = 1")
    assert law_matches({2: 3}, {1: 0.0, 2: 1.0})[0]
    # a law of two or more values that the sample pools into one group has
    # nothing to test: refused, like an empty sample, not passed
    for counts in ({0: 3}, {1: 4}):
        with pytest.raises(ValueError):
            law_matches(counts, {0: 0.1, 1: 0.9})
    for counts, law_ in (({2: 9, 4: 1}, {2: 1.0}), ({0: 5000, 1: 3000, 2: 1999, 7: 1}, law)):
        ok, detail = law_matches(counts, law_)
        assert not ok and detail.startswith("p = 0: the law excludes the value")


def test_law_matches_pools_sparse_cells():
    # expected counts 3, 3 | 10 | 1, 1, 2: the first two cells close a group at
    # 6 and the third a group of its own; the short last group (4) joins the
    # one before, so the groups are observed 8, 12 against expected 6, 14
    law = {k: e / 20 for k, e in enumerate([3, 3, 10, 1, 1, 2])}
    ok, detail = law_matches({0: 8, 2: 8, 3: 4}, law)
    stat = 2**2 / 6 + 2**2 / 14
    assert ok and detail == f"chi-square {stat:.3f} on 1 dof, p = {chi_square_sf(stat, 1):.3g}"

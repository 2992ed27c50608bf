"""The four benchmark workloads: their inputs, timed steps, digests and checks.

A workload is a list of steps run in order in one fresh process. A CLI step
calls ``pagepark.cli.main(argv)`` with ``--format json`` and keeps its stdout;
a library step calls public functions of the package. Every step returns the
text whose sha256 is its digest. The checks run after the timed part, so the
oracle and the reference recursions they call are never timed.

Why these four (each stresses a different module, see BENCHMARK.json):

* ``trials``   -- ``trials`` sweep: attempt counting, ``finite.occupancy_profile``
  and ``car_slots_from_occupancy`` on one long row per call, thread fan-out.
* ``line``     -- ``density-curve`` then ``autocovariance``: the two kernels of
  ``infinite`` only; the control for changes aimed at ``finite``/``trials``.
* ``interval`` -- ``density-convergence``: ``finite.simulate_direct_batch`` on
  many short rows with rejections; single-threaded.
* ``exact``    -- cold exact recursions: both paths of ``distribution_M``,
  ``expected_M``, the vacancy profile. Pure-Python big-integer work.

The package is imported lazily (``import pagepark`` inside functions) so that
the parent driver can read the workload table without importing numpy.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("trials", "line", "interval", "exact")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def threads_for(workload: str) -> int:
    """Worker threads a workload passes to the package (``--threads``)."""
    return nproc() if workload in ("trials", "line") else 1


# Sizes per workload. "full" is what the benchmark measures; "tiny" keeps the
# same steps and checks at a size the benchmark's own tests can afford.
SIZES = {
    "full": {
        "trials_n": (100_000, 1_000_000),
        "trials_replicas": 30,  # >= 30 so that the ratio_nondecreasing check runs
        "curve_replicas": 2_000_000,
        "autocov_lags": (0, 1, 2, 3, 5, 8, 13),
        "autocov_replicas": 200_000,
        "interval_n": (100, 1000, 10_000),
        "interval_replicas": 150,
        "dist_rational_n": 96,
        "dist_float_n": 300,
        "expected_M_n": 3000,
    },
    "tiny": {
        "trials_n": (1000, 10_000),
        "trials_replicas": 30,
        "curve_replicas": 20_000,
        "autocov_lags": (0, 1, 2),
        "autocov_replicas": 20_000,
        "interval_n": (100, 1000),
        "interval_replicas": 200,
        "dist_rational_n": 24,
        "dist_float_n": 40,
        "expected_M_n": 200,
    },
}

# README band for T_n / (n log n) at n = 10^6.
TRIALS_BAND_N = 1_000_000
TRIALS_BAND = (0.85, 1.05)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class StepResult:
    """What one timed step left behind: the digest text and its own checks."""

    text: str
    value: object = None
    checks: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


@dataclass
class Step:
    """A timed call. ``render`` builds a library step's digest text from its
    value after timing; CLI steps digest their stdout as is."""

    name: str
    run: Callable[[], StepResult]
    render: Callable[[object], str] | None = None


def _cli_step(name: str, argv: list[str]) -> Step:
    """A CLI call. Its checks are the envelope's ``checks.entries``; a non-zero
    exit fails every check of the step."""

    def run() -> StepResult:
        import pagepark.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = pagepark.cli.main(argv)
            except SystemExit as exc:  # usage errors exit through argparse
                rc = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        try:
            doc = json.loads(text)
            entries = doc["checks"]["entries"]
        except (ValueError, KeyError, TypeError):
            doc, entries = None, []
        checks = [Check(f"{name}.{e['name']}", bool(e["passed"]) and rc == 0, e["detail"]) for e in entries]
        if rc != 0 and not checks:
            checks = [Check(f"{name}.exit", False, f"exit code {rc}: {err.getvalue()[-300:]}")]
        return StepResult(text=text, value=doc, checks=checks)

    return Step(name, run)


def _library_step(name: str, fn: Callable[[], object], render: Callable[[object], str]) -> Step:
    return Step(name, lambda: StepResult(text="", value=fn()), render)


def _fmt(x) -> str:
    """Digest text of an exact or float number. Fractions are written in hex:
    Python refuses decimal conversion of integers beyond 4300 digits."""
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"
    return repr(x)


def _fmt_dist(d) -> str:
    return "\n".join(f"{m} {_fmt(p)}" for m, p in sorted(d.probs.items()))


def build(workload: str, seed: int, size: str = "full", threads: int | None = None) -> list[Step]:
    """The timed steps of a workload for one seed."""
    sz = SIZES[size]
    k = str(threads_for(workload) if threads is None else threads)
    common = ["--format", "json", "--seed", str(seed)]
    if workload == "trials":
        n_list = ",".join(map(str, sz["trials_n"]))
        return [_cli_step("trials", ["trials", "--n-list", n_list, "--replicas",
                                     str(sz["trials_replicas"]), "--threads", k, *common])]
    if workload == "line":
        lags = ",".join(map(str, sz["autocov_lags"]))
        return [
            _cli_step("density-curve", ["density-curve", "--replicas", str(sz["curve_replicas"]),
                                        "--threads", k, *common]),
            _cli_step("autocovariance", ["autocovariance", "--n-list", lags, "--replicas",
                                         str(sz["autocov_replicas"]), "--threads", k, *common]),
        ]
    if workload == "interval":
        n_list = ",".join(map(str, sz["interval_n"]))
        return [_cli_step("density-convergence", ["density-convergence", "--n-list", n_list,
                                                  "--replicas", str(sz["interval_replicas"]), *common])]
    if workload == "exact":
        # pagepark.<name> is looked up at call time, so probes installed on the
        # package namespace see these calls. rational_cap is passed explicitly:
        # a later change to the default cap cannot move work between the paths.
        # The timed inputs do not depend on the seed; it picks the oracle size.
        import pagepark

        nr, nf, ne = sz["dist_rational_n"], sz["dist_float_n"], sz["expected_M_n"]
        return [
            _library_step("dist_rational", lambda: pagepark.distribution_M(nr, rational_cap=nr), _fmt_dist),
            _library_step("dist_float", lambda: pagepark.distribution_M(nf, rational_cap=nf - 1), _fmt_dist),
            _library_step("expected_M", lambda: pagepark.expected_M(ne), _fmt),
            _library_step("expected_M_series", lambda: pagepark.expected_M_series(nf),
                          lambda a: a.tobytes().hex()),
            _library_step("vacancy_profile",
                          lambda: [pagepark.per_site_vacancy_exact(nr, i) for i in range(1, nr + 1)],
                          lambda v: " ".join(map(_fmt, v))),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def finish(workload: str, seed: int, size: str, steps: list[Step], results: list[StepResult]) -> list[Check]:
    """Render digests of library steps and run the benchmark's own checks.

    Returns every check of the run, the CLI envelopes' included."""
    for step, res in zip(steps, results):
        if step.render is not None:
            res.text = step.render(res.value)
    checks = [c for res in results for c in res.checks]
    by_name = {s.name: r for s, r in zip(steps, results)}
    if workload == "trials":
        checks += _trials_checks(by_name["trials"].value, SIZES[size])
    elif workload == "exact":
        checks += _exact_checks(seed, SIZES[size], {k: r.value for k, r in by_name.items()})
    return checks


def _trials_checks(doc, sz: dict) -> list[Check]:
    if TRIALS_BAND_N not in sz["trials_n"]:
        return []
    row = next((r for r in (doc or {}).get("rows", ()) if r["n"] == TRIALS_BAND_N), None)
    lo, hi = TRIALS_BAND
    if row is None:
        return [Check("bench.trials_ratio_band", False, f"no row for n={TRIALS_BAND_N}")]
    return [Check("bench.trials_ratio_band", lo <= row["ratio"] <= hi,
                  f"T_n/(n log n) = {row['ratio']:.4f} in [{lo}, {hi}] at n={TRIALS_BAND_N}")]


def _exact_checks(seed: int, sz: dict, v: dict) -> list[Check]:
    import pagepark

    nr, nf, ne = sz["dist_rational_n"], sz["dist_float_n"], sz["expected_M_n"]
    rat, flt = v["dist_rational"], v["dist_float"]
    em_r = pagepark.expected_M(nr)
    rho = 1.0 - math.exp(-2.0)
    out = [
        Check("bench.dist_rational_is_exact", rat.exact, f"n={nr} exact flag {rat.exact}"),
        Check("bench.dist_rational_sums_to_1", sum(rat.probs.values(), Fraction(0)) == 1,
              f"sum of {len(rat.probs)} probabilities == 1 exactly"),
        Check("bench.dist_rational_mean", rat.mean() == em_r, f"mean == expected_M({nr}) exactly"),
    ]
    # the oracle replays all (n-1)! orderings; n <= 8 keeps it under a second
    n_o = 3 + seed % 6
    oracle = pagepark.enumerate_orderings(n_o).distribution_M
    small = pagepark.distribution_M(n_o).probs
    out.append(Check("bench.dist_matches_oracle", {m: p for m, p in oracle.items() if p} == small,
                     f"distribution_M({n_o}) == enumerate_orderings({n_o})"))
    total = math.fsum(flt.probs.values())
    series = v["expected_M_series"]
    out += [
        Check("bench.dist_float_is_float", not flt.exact, f"n={nf} exact flag {flt.exact}"),
        Check("bench.dist_float_sums_to_1", abs(total - 1.0) <= 1e-12, f"|sum - 1| = {abs(total - 1.0):.2e}"),
        Check("bench.dist_float_mean", math.isclose(flt.mean(), series[nf], rel_tol=1e-9),
              f"mean {flt.mean():.12g} vs expected_M_series {series[nf]:.12g}"),
    ]
    vac = v["vacancy_profile"]
    out.append(Check("bench.vacancy_complements_mean", len(vac) == nr and sum(vac, Fraction(0)) + em_r == nr,
                     f"sum of {len(vac)} vacancies + E[M_{nr}] == {nr} exactly"))
    for n, em in ((nr, em_r), (ne, v["expected_M"])):
        gap = abs(float(em) - n * rho)
        out.append(Check(f"bench.finite_size_gap_n{n}", gap <= 12.0, f"|E[M_n] - n(1-e^-2)| = {gap:.4f} <= 12"))
    return out

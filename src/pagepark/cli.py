"""Command-line harness around the dimer parking library.

Each subcommand runs a self-contained experiment, writes one table
(CSV or a JSON envelope) to stdout or --out, and validates its own
in-run consistency checks.  Exit status: 0 every check passed, 1 a check
failed, 2 usage error, 3 internal error (RareEventCapError included).
Progress and check diagnostics go to stderr; stdout carries data only.

Determinism: for a fixed seed and flag set the emitted bytes are
identical across re-runs and across machines' CPU counts. --threads K is
accepted and ignored, and stays parsed for scripts that still pass it: the
line kernels pool over the usable CPUs (core.map_streams), and the finite
kernels run one stream per row on the calling thread.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

from .core import DEFAULT_SEED, SEED_ENV_VAR, ArrivalDistribution, SeedSpec
from .exact import (
    DISTRIBUTION_RATIONAL_CAP,
    density_curve_closed_form,
    distribution_M,
    expected_M,
    expected_M_series,
    limit_constants,
    per_site_vacancy_exact,
    per_site_vacancy_float,
    site_coupling_bound,
    variance_M,
)
from . import finite, infinite
from .finite import occupancy_profile
from .infinite import autocovariance_mc
from .oracle import ENUMERATION_CAP, enumerate_orderings, expected_T_exact
from .stats import SampleStats, within_stderr
from .trials import TAU_STAR_LEVELS, trials_ratio_sweep

__all__ = ["build_parser", "main"]


@dataclass
class CheckLog:
    """Accumulates named pass/fail checks for one run."""

    entries: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.entries.append({"name": name, "passed": bool(ok), "detail": detail})
        status = "ok" if ok else "FAIL"
        print(f"check[{status}] {name}: {detail}", file=sys.stderr)

    @property
    def all_passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    def as_dict(self) -> dict:
        return {"passed": self.all_passed, "entries": self.entries}


def _fmt_value(x: Any) -> str:
    """CSV cell rendering: floats at 10 significant digits, exact
    rationals as p/q, the rest via str()."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".10g")
    return str(x)


def _json_value(x: Any) -> Any:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def emit(rows: Sequence[dict], checks: CheckLog, args: argparse.Namespace) -> None:
    """Write the table in args.fmt to args.out or stdout. A row's insertion
    order fixes the CSV column order and the JSON key order; the JSON
    envelope echoes the command and its config: the seed, if the command
    takes one, then the command's own flags in parser order, read off args."""
    if args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow([_fmt_value(v) for v in row.values()])
        text = buf.getvalue()
    else:
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "run", "fmt", "out", "threads")}
        doc = {
            "command": args.command,
            "config": dict(sorted(flags.items(), key=lambda item: item[0] != "seed")),  # seed first
            "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows],
            "checks": checks.as_dict(),
        }
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# argparse types. A bad value is a usage error (exit 2, before any work
# starts), whose message says what the flag needs.


def _read(kind: Callable[[str], Any], text: str, need: str):
    """kind(text), or a usage error saying what was needed."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}") from None


def _at_least(low: int, high: int | None = None) -> Callable[[str], int]:
    """An integer >= low, and <= high if a high is given."""
    need = f"an integer >= {low}" if high is None else f"an integer in {low}..{high}"

    def integer(text: str) -> int:
        value = _read(int, text, need)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(f"need {need}, got {value}")
        return value

    return integer


def _time(text: str) -> float:
    """A finite time >= 0."""
    value = _read(float, text, "a finite time >= 0")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"need a finite time >= 0, got {text!r}")
    return value


def _csv_list(item: Callable[[str], Any]) -> Callable[[str], list]:
    """A nonempty comma-separated list, each entry parsed by `item`, sorted
    and deduplicated; a bad entry is named in the usage error."""

    def parse(text: str) -> list:
        values = []
        for tok in filter(str.strip, text.split(",")):
            try:
                values.append(item(tok))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise argparse.ArgumentTypeError(f"entry {tok!r} of {text!r}: {exc}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"need at least one value, got {text!r}")
        return sorted(set(values))

    return parse


def _out_path(text: str) -> str:
    """A file path in an existing directory. Nothing is opened here: the
    table is written only after the run."""
    if not text or os.path.isdir(text) or not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"need a file path in an existing directory, got {text!r}")
    return text


_replica_count = _at_least(2)  # one replica has no standard error


# ---------------------------------------------------------------------------
# subcommands


def cmd_density_convergence(args: argparse.Namespace) -> tuple[list, CheckLog]:
    n_list = args.n_list
    rho = limit_constants()["jamming_density"]
    series = expected_M_series(n_list[-1]) if n_list[-1] > DISTRIBUTION_RATIONAL_CAP else None
    checks = CheckLog()
    rows = []
    for idx, n in enumerate(n_list):
        exact: Fraction | float
        if n <= DISTRIBUTION_RATIONAL_CAP:
            exact = expected_M(n)
            em = float(exact)
        else:
            em = float(series[n])
            exact = em
        print(f"density-convergence: n={n} ({args.replicas} replicas)", file=sys.stderr)
        # looked up on the module at call time, so that a wrapper installed there sees this call
        m = finite.simulate_direct_batch(n, args.replicas, SeedSpec(args.seed, idx))
        m_stats = SampleStats.from_samples(m)
        density_gap = abs(em / n - rho)
        rows.append(
            dict(
                n=n,
                expected_m=exact,
                expected_m_over_n=em / n,
                mc_mean_over_n=m_stats.mean / n,
                mc_stderr_over_n=m_stats.stderr / n,
                replicas=args.replicas,
                abs_gap_to_limit=density_gap,
                density_bound=12.0 / n,
            )
        )
        checks.record(
            f"gap_bound_n{n}",
            density_gap <= 12.0 / n + 1e-12,
            f"|E[M_n]/n - (1-e^-2)| = {density_gap:.3e} <= 12/n = {12.0 / n:.3e}",
        )
        checks.record(f"mc_agrees_n{n}",
                      *within_stderr(m_stats.mean, em, math.sqrt(variance_M(n) / m_stats.count), 5.0))
    return rows, checks


def cmd_density_curve(args: argparse.Namespace) -> tuple[list, CheckLog]:
    t_grid = args.t_grid
    dist = ArrivalDistribution(args.dist)
    closed_arr = density_curve_closed_form(t_grid, dist=dist)
    print(
        f"density-curve: {len(t_grid)} points, {args.replicas} replicas", file=sys.stderr
    )
    # each chunk is reduced to its grid counts where it is drawn, so memory does not grow
    # with --replicas; looked up on the module at call time, so that a wrapper installed there sees this call
    est, longest = infinite.density_curve_mc(t_grid, args.replicas, seed=SeedSpec(args.seed, 0), dist=dist)
    print(f"density-curve: longest run {longest} (cap {infinite.WINDOW_CAP})", file=sys.stderr)
    checks = CheckLog()
    rows = []
    for t, closed, mc in zip(t_grid, closed_arr, est):
        closed = float(closed)
        diff = abs(mc.estimate - closed)
        rows.append(
            dict(
                t=t,
                closed_form=closed,
                mc_estimate=mc.estimate,
                mc_stderr=mc.stderr,
                abs_diff=diff,
                replicas=args.replicas,
            )
        )
        checks.record(f"curve_t{t:g}",
                      *within_stderr(mc.estimate, closed, math.sqrt(closed * (1.0 - closed) / mc.replicas), 4.0))
    return rows, checks


def cmd_trials(args: argparse.Namespace) -> tuple[list, CheckLog]:
    n_list = args.n_list
    checks = CheckLog()
    print(
        f"trials: n in {n_list}, {args.replicas} replicas each", file=sys.stderr
    )
    sweep = trials_ratio_sweep(n_list, args.replicas, seed=args.seed)
    rows = []
    for r in sweep:
        rows.append(
            dict(
                n=r.n,
                replicas=r.replicas,
                mean_t=r.mean_T,
                stderr_t=r.stderr_T,
                ratio=r.ratio,
                ratio_stderr=r.ratio_stderr,
                tau_star_mean=r.tau_star_mean,
                **{f"tau_star_q{round(100 * q):02d}": v for q, v in zip(TAU_STAR_LEVELS, r.tau_star_quantiles)},
                coupon_mean=r.coupon_mean,
                dominated_by_coupon=r.dominated_by_coupon,
            )
        )
        checks.record(f"coupon_dominates_n{r.n}", r.dominated_by_coupon,
                      f"mean T = {r.mean_T:.1f} <= coupon mean {r.coupon_mean:.1f} (+3 stderr)")
    if len(sweep) >= 2 and args.replicas >= 30:
        # T_n / (n log n) must not fall from one row to the next by more than
        # 3 stderr of the difference
        for a, b in zip(sweep, sweep[1:]):
            slack = 3.0 * math.hypot(a.ratio_stderr, b.ratio_stderr)
            checks.record(f"ratio_nondecreasing_n{a.n}_to_n{b.n}", b.ratio >= a.ratio - slack,
                          f"ratio {a.ratio:.4f} -> {b.ratio:.4f} (slack {slack:.4f})")
    return rows, checks


def cmd_oracle(args: argparse.Namespace) -> tuple[list, CheckLog]:
    n_list = args.n_list
    checks = CheckLog()
    rows = []
    for n in n_list:
        print(f"oracle: n={n}: replaying all {math.factorial(n - 1)} orderings", file=sys.stderr)
        report = enumerate_orderings(n, occupancy_profile)
        analytic = expected_M(n)
        checks.record(
            f"expected_m_matches_recursion_n{n}",
            report.expected_M == analytic,
            f"enumeration {report.expected_M} == recursion {analytic}",
        )
        law = distribution_M(n).probs
        checks.record(
            f"distribution_matches_recursion_n{n}",
            report.distribution_M == law,
            f"{len(law)} masses of the law of M compared exactly",
        )
        analytic_vac = tuple(per_site_vacancy_exact(n, i) for i in range(1, n + 1))
        checks.record(
            f"per_site_vacancy_matches_closed_form_n{n}",
            report.per_site_vacancy == analytic_vac,
            f"{n} sites compared exactly",
        )
        vac_sum = sum(report.per_site_vacancy, Fraction(0))
        checks.record(
            f"vacancy_complements_occupancy_n{n}",
            vac_sum + report.expected_M == n,
            f"sum vacancy {vac_sum} + E[M] {report.expected_M} == n",
        )
        chain_T = expected_T_exact(n)
        checks.record(
            f"expected_t_matches_chain_n{n}",
            report.expected_T == chain_T,
            f"enumeration {report.expected_T} == absorbing chain {chain_T}",
        )
        checks.record(
            f"parity_classification_matches_dynamics_n{n}",
            not report.counterexamples,
            f"{len(report.counterexamples)} counterexamples over all {report.permutations} orderings",
        )
        rows.append(
            dict(
                n=report.n,
                permutations=report.permutations,
                expected_m=report.expected_M,
                expected_t=report.expected_T,
                distribution_m={str(k): _json_value(v) for k, v in sorted(report.distribution_M.items())},
                per_site_vacancy=[_json_value(v) for v in report.per_site_vacancy],
            )
        )
    return rows, checks


def cmd_site_vacancy(args: argparse.Namespace) -> tuple[list, CheckLog]:
    n = args.n
    checks = CheckLog()
    use_exact = n <= DISTRIBUTION_RATIONAL_CAP
    if use_exact:
        vac: list = [per_site_vacancy_exact(n, i) for i in range(1, n + 1)]
    else:
        vac = [per_site_vacancy_float(n, i) for i in range(1, n + 1)]
    rows = []
    for i, v in enumerate(vac, start=1):
        rows.append(
            dict(
                site=i,
                vacancy=v,
                vacancy_float=float(v),
                coupling_bound=site_coupling_bound(n, i),
            )
        )
    sym = all(vac[i] == vac[n - 1 - i] for i in range(n))
    checks.record("profile_symmetric", sym, "v(i) == v(n+1-i) for all sites")
    if use_exact:
        total = sum(vac, Fraction(0))
        em = expected_M(n)
        checks.record(
            "vacancy_complements_occupancy",
            total + em == n,
            f"sum vacancy {total} + E[M] {em} == n (exact)",
        )
    else:
        total = math.fsum(vac)
        em = float(expected_M_series(n)[n])
        checks.record(
            "vacancy_complements_occupancy",
            abs(total + em - n) <= 1e-8 * n,
            f"sum vacancy {total:.6f} + E[M] {em:.6f} == n to 1e-8 relative",
        )
    lim = limit_constants()["vacancy"]
    mid_site = (n + 1) // 2
    mid = float(vac[mid_site - 1])
    bound = site_coupling_bound(n, mid_site)
    checks.record(
        "centre_near_limit",
        abs(mid - lim) <= bound + 1e-12,
        f"|v(mid) - e^-2| = {abs(mid - lim):.3e} <= {bound:.3e}",
    )
    return rows, checks


def cmd_autocovariance(args: argparse.Namespace) -> tuple[list, CheckLog]:
    k_list = args.k_list
    checks = CheckLog()
    rows = []
    vac = limit_constants()["vacancy"]
    print(f"autocovariance: lags {','.join(map(str, k_list))} ({args.replicas} pairs)", file=sys.stderr)
    estimates = autocovariance_mc(k_list, args.replicas, seed=SeedSpec(args.seed, 0))
    for k, est in zip(k_list, estimates):
        print(f"autocovariance: lag {k}: longest run {est.longest_run} (cap {infinite.WINDOW_CAP})", file=sys.stderr)
        rows.append(
            dict(
                lag=k,
                autocovariance=est.estimate,
                stderr=est.stderr,
                mean_site_0=est.mean_site_0,
                mean_site_k=est.mean_site_k,
                replicas=est.replicas,
            )
        )
        if k == 0:
            # cov(0) is the variance q(1-q) of the site-0 occupancy q, and it
            # equals vac (1-vac) at q = vac and at q = 1-vac. X(0) and 1-X(0)
            # share the variance and the band, so the occupancy is near vac or
            # 1-vac iff the rarer value is near vac
            rarer = min(est.mean_site_0, 1.0 - est.mean_site_0)
            checks.record("lag0_is_bernoulli_variance",
                          *within_stderr(rarer, vac, math.sqrt(vac * (1.0 - vac) / est.replicas), 5.0))
        elif k in (1, 2, 4):
            # runs of cars have even length, so two vacant sites are never 1,
            # 2 or 4 apart: an exact count, with no band
            checks.record(f"lag{k}_no_vacant_pair", est.both_vacant == 0,
                          f"{est.both_vacant} of {est.replicas} pairs have both sites vacant")
        elif k >= 30:
            # decorrelated sites give the sample covariance the stderr
            # sqrt(var X(0) var X(k) / replicas), and each site's occupancy
            # variance on the line is exactly vac (1-vac)
            checks.record(f"lag{k}_decorrelated",
                          *within_stderr(est.estimate, 0.0, vac * (1.0 - vac) / math.sqrt(est.replicas), 5.0))
    return rows, checks


# ---------------------------------------------------------------------------
# parser wiring


def _seed(text: str) -> int:
    """A master seed: an integer >= 0, from --seed or else from the environment."""
    try:
        return _at_least(0)(text)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{exc} (from --seed, else {SEED_ENV_VAR})") from None


def _add_output(p: argparse.ArgumentParser, formats: tuple = ("csv", "json")) -> None:
    p.add_argument("--format", dest="fmt", choices=formats, default=formats[0],
                   help=f"output format (default {formats[0]})")
    p.add_argument("--out", type=_out_path, default=None, metavar="PATH",
                   help="write the table to PATH instead of stdout")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    # a string default goes through _seed only when --seed is absent
    p.add_argument("--seed", type=_seed, default=os.environ.get(SEED_ENV_VAR) or str(DEFAULT_SEED),
                   help=f"master seed, an integer >= 0 (default {DEFAULT_SEED}; env {SEED_ENV_VAR})")
    _add_output(p)
    p.add_argument("--threads", type=_at_least(1), default=1, metavar="K",
                   help="accepted and ignored, so that scripts passing it still run; the line "
                        "kernels pool over the usable CPUs, the finite kernels run one stream per row")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagepark",
        description="Dimer random sequential adsorption: exact tables "
                    "and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density-convergence",
                       help="E[M_n]/n versus the jamming limit 1 - e^-2")
    p.add_argument("--n-list", type=_csv_list(_at_least(2)), default="10,100,1000,10000",
                   help="comma-separated interval sizes")
    p.add_argument("--replicas", type=_replica_count, default=10_000,
                   help="Monte Carlo replicas per n (default 10000)")
    _add_sampling(p)
    p.set_defaults(run=cmd_density_convergence)

    p = sub.add_parser("density-curve",
                       help="time-resolved density versus 1 - e^{-2F(t)}")
    p.add_argument("--t-grid", type=_csv_list(_time), default="0.25,0.5,1,2,4",
                   help="comma-separated time points")
    p.add_argument("--replicas", type=_replica_count, default=100_000,
                   help="Monte Carlo replicas (default 100000)")
    p.add_argument("--dist", choices=("exp", "uniform"), default="exp",
                   help="arrival mark distribution (default exp)")
    _add_sampling(p)
    p.set_defaults(run=cmd_density_curve)

    p = sub.add_parser("trials",
                       help="total draws T_n against the n log n scale")
    p.add_argument("--n-list", type=_csv_list(_at_least(2)), default="1000,10000,100000,1000000",
                   help="comma-separated interval sizes")
    p.add_argument("--replicas", type=_replica_count, default=100,
                   help="replicas per n (default 100)")
    _add_sampling(p)
    p.set_defaults(run=cmd_trials)

    p = sub.add_parser("oracle",
                       help="exhaustive small-n enumeration report (JSON)")
    p.add_argument("--n", dest="n_list", metavar="N", type=_csv_list(_at_least(2, ENUMERATION_CAP)), default="6",
                   help=f"comma-separated interval sizes, each in 2..{ENUMERATION_CAP}")
    # the report is nested (a distribution and a profile), which csv would flatten
    _add_output(p, ("json",))
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("site-vacancy",
                       help="exact per-site vacancy profile")
    p.add_argument("--n", type=_at_least(2), default=20, help="interval size (>= 2)")
    _add_output(p)
    p.set_defaults(run=cmd_site_vacancy)

    p = sub.add_parser("autocovariance",
                       help="jammed-state occupancy autocovariance on the line")
    p.add_argument("--n-list", "--k-list", dest="k_list", type=_csv_list(_at_least(0)),
                   default="0,1,2,3,5,8,13,21,34",
                   help="comma-separated lags")
    p.add_argument("--replicas", type=_replica_count, default=200_000,
                   help="site pairs per lag (default 200000)")
    _add_sampling(p)
    p.set_defaults(run=cmd_autocovariance)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run: Callable = args.run
    try:
        rows, checks = run(args)
        emit(rows, checks, args)
    except Exception as exc:  # the process boundary: one line and exit 3, never a traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"{args.command}: internal error: {type(exc).__name__}: {exc} "
              f"({os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return 3
    if not checks.all_passed:
        failed = sum(not e["passed"] for e in checks.entries)
        print(f"{args.command}: {failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

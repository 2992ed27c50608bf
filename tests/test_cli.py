"""CLI harness: table shapes, determinism, exit codes, and JSON schemas."""
import dataclasses
import functools
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from pagepark import cli, exact, infinite, oracle
from pagepark.cli import build_parser, main
from pagepark.core import DEFAULT_SEED, SeedSpec
from pagepark.exact import (
    DISTRIBUTION_RATIONAL_CAP,
    distribution_M,
    expected_M,
    limit_constants,
    per_site_vacancy_exact,
    variance_M,
)
from pagepark.finite import occupancy_profile, simulate_direct_batch
from pagepark.infinite import autocovariance_mc
from pagepark.oracle import OracleReport, expected_T_exact, park_in_rank_order
from pagepark.stats import SampleStats
from pagepark.trials import trials_ratio_sweep

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"
CLI = [sys.executable, "-m", "pagepark.cli"]


def run_cli(*args: str, env: dict | None = None, cli: list = CLI) -> subprocess.CompletedProcess:
    import os

    full_env = dict(os.environ)
    full_env.pop("PAGEPARK_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        cli + list(args), capture_output=True, text=True, env=full_env, timeout=600
    )


def validator_for(command: str) -> Draft202012Validator:
    common = json.loads((SCHEMA_DIR / "common.schema.json").read_text())
    schema = json.loads((SCHEMA_DIR / f"{command}.schema.json").read_text())
    registry = Registry().with_resources(
        [
            ("pagepark/common.schema.json", Resource.from_contents(common)),
            (f"pagepark/{command}.schema.json", Resource.from_contents(schema)),
        ]
    )
    return Draft202012Validator(schema, registry=registry)


# small-but-real invocations, one per subcommand
INVOCATIONS = {
    "density-convergence": ["density-convergence", "--n-list", "10,50", "--replicas", "3000"],
    "density-curve": ["density-curve", "--t-grid", "0.5,2", "--replicas", "30000"],
    "trials": ["trials", "--n-list", "200,1000", "--replicas", "40"],
    "oracle": ["oracle", "--n", "6"],
    "site-vacancy": ["site-vacancy", "--n", "12"],
    "autocovariance": ["autocovariance", "--k-list", "0,2", "--replicas", "30000"],
}


class TestSchemas:
    @pytest.mark.parametrize("command", sorted(INVOCATIONS))
    def test_json_output_validates(self, command):
        res = run_cli(*INVOCATIONS[command], "--format", "json")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        validator_for(command).validate(doc)
        assert doc["command"] == command
        assert doc["checks"]["passed"] is True

    def test_schema_rejects_corrupt_envelope(self):
        res = run_cli(*INVOCATIONS["site-vacancy"], "--format", "json")
        doc = json.loads(res.stdout)
        doc["rows"][0]["vacancy"] = "not-a-rational"
        with pytest.raises(Exception):
            validator_for("site-vacancy").validate(doc)


class TestCsvShape:
    def test_header_and_cells(self):
        res = run_cli("site-vacancy", "--n", "6")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "site,vacancy,vacancy_float,coupling_bound"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1"
        assert "/" in first[1]  # exact rational

    def test_float_formatting_ten_digits(self):
        res = run_cli("density-curve", "--t-grid", "0.5", "--replicas", "4000")
        row = res.stdout.strip().split("\n")[1].split(",")
        closed = row[1]
        assert closed == "0.544763712"  # 1 - e^{-2(1-e^{-0.5})} at 10 sig digits

    def test_stdout_is_data_only(self):
        res = run_cli("site-vacancy", "--n", "5")
        for line in res.stdout.strip().split("\n"):
            assert not line.startswith(("check[", "note:", "#"))


class TestDeterminism:
    def test_rerun_byte_identical(self):
        a = run_cli(*INVOCATIONS["density-curve"])
        b = run_cli(*INVOCATIONS["density-curve"])
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    @pytest.mark.parametrize("command", ["trials", "density-curve", "autocovariance", "density-convergence"])
    def test_threads_do_not_change_bytes(self, command):
        a = run_cli(*INVOCATIONS[command], "--threads", "1", "--format", "json")
        b = run_cli(*INVOCATIONS[command], "--threads", "4", "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_seed_changes_mc_columns(self):
        a = run_cli("density-curve", "--t-grid", "1", "--replicas", "20000", "--seed", "1")
        b = run_cli("density-curve", "--t-grid", "1", "--replicas", "20000", "--seed", "2")
        assert a.stdout != b.stdout

    def test_env_seed_and_flag_precedence(self):
        base = run_cli("density-curve", "--t-grid", "1", "--replicas", "20000")
        env = run_cli(
            "density-curve", "--t-grid", "1", "--replicas", "20000",
            env={"PAGEPARK_SEED": "99"},
        )
        flag = run_cli(
            "density-curve", "--t-grid", "1", "--replicas", "20000", "--seed", "99",
        )
        override = run_cli(
            "density-curve", "--t-grid", "1", "--replicas", "20000", "--seed", "42424242",
            env={"PAGEPARK_SEED": "99"},
        )
        assert env.stdout != base.stdout
        assert env.stdout == flag.stdout  # env var fills the --seed default
        assert override.stdout == base.stdout  # explicit flag wins over env


class TestOutAndErrors:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "table.csv"
        res = run_cli("site-vacancy", "--n", "8", "--out", str(target))
        assert res.returncode == 0
        assert res.stdout == ""
        text = target.read_text()
        assert text.startswith("site,vacancy")
        inline = run_cli("site-vacancy", "--n", "8")
        assert text == inline.stdout

    def test_oracle_forces_json(self, capsys):
        # json is the oracle's one format and its default, and it echoes no seed
        outputs = []
        for fmt in ([], ["--format", "json"]):
            assert main(["oracle", "--n", "4", *fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["config"] == {"n_list": [4]}

    def test_exact_commands_take_no_sampling_flags(self):
        # oracle and site-vacancy draw no random number: a seed, a thread
        # count or a csv oracle is a usage error before any work starts
        for argv, error in (
            (["oracle", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["oracle", "--threads", "2"], "unrecognized arguments: --threads 2"),
            (["oracle", "--format", "csv"], "argument --format: invalid choice: 'csv'"),
            (["site-vacancy", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["site-vacancy", "--threads", "2"], "unrecognized arguments: --threads 2"),
        ):
            res = run_cli(*argv)
            assert (res.returncode, res.stdout) == (2, ""), argv
            assert error in res.stderr and "Traceback" not in res.stderr, argv

    def test_oracle_sweeps_the_classifier_at_every_n(self, monkeypatch, capsys):
        # n = 10 is the largest --n argparse accepts; the spy stands in for the
        # one pass over all 9! orderings (1.6 s there), returns the exact report
        # and plants the counterexamples the classifier check must read
        calls = []

        def one_pass(n, classify=None, bad=()):
            calls.append((n, classify))
            return OracleReport(
                n=n, permutations=math.factorial(n - 1), expected_M=expected_M(n),
                distribution_M=distribution_M(n).probs,
                per_site_vacancy=tuple(per_site_vacancy_exact(n, i) for i in range(1, n + 1)),
                expected_T=expected_T_exact(n), counterexamples=bad)

        for bad, code in (((), 0), ((((1,) * 9, 3),), 1)):
            calls.clear()
            monkeypatch.setattr(cli, "enumerate_orderings", functools.partial(one_pass, bad=bad))
            assert main(["oracle", "--n", "10"]) == code
            assert calls == [(10, occupancy_profile)]
            entries = {e["name"]: e for e in json.loads(capsys.readouterr().out)["checks"]["entries"]}
            assert entries["parity_classification_matches_dynamics_n10"]["passed"] == (not bad)
            assert sum(not e["passed"] for e in entries.values()) == len(bad)

    def test_oracle_replays_each_ordering_once(self, monkeypatch, capsys):
        # the report and the classifier check share one pass: 5! replays at
        # n = 6, one per ordering; the one-row view replays once per call
        calls = []
        replay = oracle._replay
        monkeypatch.setattr(oracle, "_replay", lambda order, n: calls.append(n) or replay(order, n))
        assert main(["oracle", "--n", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]["passed"]
        assert calls == [6] * 120
        calls.clear()
        assert park_in_rank_order((1, 1, 1)) == [0, 0, 2, 2]
        assert park_in_rank_order((2, 1, 1)) == [None, 1, 1, None]
        assert calls == [4, 4]

    def test_oracle_n_list_audits_every_n(self):
        res = run_cli("oracle", "--n", "4,2,3")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["config"]["n_list"] == [row["n"] for row in doc["rows"]] == [2, 3, 4]
        names = [e["name"] for e in doc["checks"]["entries"]]
        assert len(names) == 18 and doc["checks"]["passed"]
        assert [name.rsplit("_", 1)[1] for name in names] == ["n2"] * 6 + ["n3"] * 6 + ["n4"] * 6

    def test_oracle_cap_errors(self):
        res = run_cli("oracle", "--n", "11")
        assert (res.returncode, res.stdout) == (2, "")
        assert "Traceback" not in res.stderr

    def test_bad_flag_values(self):
        # bad input is a usage error with its own exit code, not a crash
        for argv in (("site-vacancy", "--n", "1"), ("trials", "--n-list", "1,5"),
                     ("density-curve", "--t-grid", "-1"), ("density-curve", "--threads", "0")):
            res = run_cli(*argv)
            assert (res.returncode, res.stdout) == (2, ""), argv
            assert "Traceback" not in res.stderr, argv

    @pytest.mark.parametrize(
        "argv",
        [
            [command, "--replicas", value]
            for command in ("density-convergence", "density-curve", "trials", "autocovariance")
            for value in ("0", "1", "many")
        ]
        + [["trials", "--n-list", value] for value in ("1", "1,5", ",", "ten")]
        + [["density-convergence", "--n-list", value] for value in ("1", "10,1", ",", "ten")]
        + [["density-curve", "--t-grid", value] for value in ("-1", "0.5,-0.1", "nan", "inf", ",", "x")]
        + [["autocovariance", flag, value] for flag in ("--k-list", "--n-list") for value in ("-1", ",", "1.5")]
        + [["site-vacancy", "--n", value] for value in ("1", "0", "two")]
        + [["oracle", "--n", value] for value in ("1", "11", "six")]
        + [["density-curve", "--threads", value] for value in ("0", "-2")]
        + [["oracle", "--n", value] for value in ("2,11", "2,x")]
        + [["trials", "--threads", value] for value in ("0", "x")]
        + [["trials", "--seed", value] for value in ("-1", "x")]
        + [["density-convergence", "--threads", value] for value in ("0", "x")]
        + [["density-curve", "--threads", "x"]]
        + [["trials", "--n-list", value] for value in ("10,1", "x")]
        + [["oracle", "--n", value] for value in ("0", "x")]
        # a missing directory, a directory or no path fails here, not after
        # the run with exit 3
        + [["site-vacancy", "--out", str(pathlib.Path(__file__).parent / path)] for path in ("no-such-dir/x.csv", ".")]
        + [["site-vacancy", "--out", ""]],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        # argparse rejects the value before any work starts: exit 2, never an
        # exception out of main, and the error names the flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        aliased = argv[0] == "autocovariance" and argv[1] in ("--n-list", "--k-list")
        assert f"error: argument {'--n-list/--k-list' if aliased else argv[1]}:" in captured.err

    @pytest.mark.parametrize(
        "argv, entry, need, got",
        [
            (["oracle", "--n", "2,x"], "x", "need an integer in 2..10", "'x'"),
            (["trials", "--n-list", "ten"], "ten", "need an integer >= 2", "'ten'"),
            (["density-curve", "--t-grid", "0.5,abc"], "abc", "need a finite time >= 0", "'abc'"),
            (["oracle", "--n", "2,11"], "11", "need an integer in 2..10", "11"),
            (["trials", "--n-list", "5,1"], "1", "need an integer >= 2", "1"),
        ],
        ids=["oracle", "trials", "density-curve", "oracle_out_of_range", "trials_out_of_range"],
    )
    def test_list_flag_names_the_bad_entry(self, argv, entry, need, got, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"entry {entry!r} of {argv[-1]!r}: {need}, got {got}\n" in err

    def test_usage_error_process_has_no_traceback(self):
        res = run_cli("trials", "--replicas", "1")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_env_seed_is_a_usage_error(self, value):
        # the environment seed goes through the --seed type of a Monte Carlo
        # command: exit 2 before any work, naming the variable, never a traceback
        argv = ("density-curve", "--t-grid", "1", "--replicas", "100")
        res = run_cli(*argv, env={"PAGEPARK_SEED": value})
        assert res.returncode == 2
        assert res.stdout == ""
        assert "PAGEPARK_SEED" in res.stderr and "Traceback" not in res.stderr
        # an explicit --seed still wins over the environment
        assert run_cli(*argv, "--seed", "5", env={"PAGEPARK_SEED": value}).returncode == 0
        # the exact commands take no seed, so they never read it
        for exact in (("site-vacancy", "--n", "4", "--format", "json"), ("oracle", "--n", "4")):
            res, clean = run_cli(*exact, env={"PAGEPARK_SEED": value}), run_cli(*exact)
            assert res.returncode == clean.returncode == 0, exact
            assert res.stdout == clean.stdout, exact

    @pytest.mark.parametrize("argv, code", [(["site-vacancy", "--n", "6"], 0), (["site-vacancy", "--n", "1"], 2)],
                             ids=["good", "usage_error"])
    def test_python_m_pagepark_runs_the_cli(self, argv, code):
        package = run_cli(*argv, cli=[sys.executable, "-m", "pagepark"])
        module = run_cli(*argv)
        assert (package.returncode, package.stdout, package.stderr) == (module.returncode, module.stdout, module.stderr)
        assert module.returncode == code

    def test_checks_reported_on_stderr(self):
        res = run_cli("site-vacancy", "--n", "10")
        assert "check[ok]" in res.stderr


class TestExitCodes:
    """0: every check passed; 1: a check failed; 2: usage error (see
    TestOutAndErrors); 3: internal error, as one stderr line."""

    def test_pass_is_0(self):
        assert main(["site-vacancy", "--n", "8"]) == 0

    def test_failed_check_is_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "site_coupling_bound", lambda n, i: -1.0)
        assert main(["site-vacancy", "--n", "8"]) == 1
        assert "check[FAIL] centre_near_limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, kernel, error",
        [
            (["density-curve", "--replicas", "100", "--threads", "2"], "_runs_chunk", infinite.RareEventCapError),
            (["autocovariance", "--k-list", "0,3", "--replicas", "100"], "_occupancy_chunk", ZeroDivisionError),
        ],
    )
    def test_internal_error_is_3(self, monkeypatch, capsys, argv, kernel, error):
        def fail(*args):
            raise error("planted")

        monkeypatch.setattr(infinite, kernel, fail)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"{argv[0]}: internal error: {error.__name__}: planted (")


def run_json(argv, capsys) -> tuple[int, dict]:
    """main(argv) in json, with its exit code and parsed envelope."""
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def outcomes(argv, capsys, prefix: str = "") -> list[bool]:
    """The outcomes of the checks of one run whose names start with prefix."""
    _, doc = run_json(argv, capsys)
    return [e["passed"] for e in doc["checks"]["entries"] if e["name"].startswith(prefix)]


def no_spread_band(n: int, replicas: int) -> float:
    """The mc_agrees band of density-convergence: 5 exact standard errors."""
    return 5.0 * math.sqrt(variance_M(n) / replicas)


class TestCheckPower:
    """Each statistical check of the CLI, driven through its command at the
    default replicas with the reference it reads moved: placed 6 Wald stderr
    from the estimate it fails on either side. Each band is z standard errors
    of the exact law, which are as wide as z sample stderr to within 5%."""

    @staticmethod
    def assert_band(run, centre, stderr, z):
        """run(reference) runs the command with the reference placed there
        and returns the outcomes of the checks that read it."""
        for sign in (-1.0, 1.0):
            assert all(run(centre + sign * 0.95 * z * stderr))
            assert not any(run(centre + sign * 1.05 * z * stderr))
            assert not any(run(centre + sign * 6.0 * stderr))

    def test_density_curve(self, monkeypatch, capsys):
        argv = ["density-curve"]
        code, doc = run_json(argv, capsys)
        assert code == 0 and len(doc["rows"]) == 5
        est = np.array([row["mc_estimate"] for row in doc["rows"]])
        se = np.array([row["mc_stderr"] for row in doc["rows"]])

        def run(closed):
            monkeypatch.setattr(cli, "density_curve_closed_form", lambda t_grid, dist: closed)
            return outcomes(argv, capsys, "curve_")

        self.assert_band(run, est, se, 4.0)

    def test_autocovariance_lag0(self, monkeypatch, capsys):
        # the reference is the Bernoulli variance vac (1 - vac) of the vacancy
        # limit, so the band is placed through the vac that gives each variance
        argv = ["autocovariance", "--k-list", "0"]
        code, doc = run_json(argv, capsys)
        assert code == 0
        (row,) = doc["rows"]
        limits = limit_constants()

        def run(var):
            monkeypatch.setattr(cli, "limit_constants", lambda: {**limits, "vacancy": 0.5 - math.sqrt(0.25 - var)})
            return outcomes(argv, capsys, "lag0_")

        self.assert_band(run, row["autocovariance"], row["stderr"], 5.0)

    def test_autocovariance_decorrelated(self, monkeypatch, capsys):
        # the reference is cov = 0, so the estimate moves instead: the lag-34
        # pairs the default --k-list draws (its largest lag, which a one-lag
        # call on the same seed reproduces), shifted by -reference
        (est,) = autocovariance_mc([34], 200_000, seed=SeedSpec(DEFAULT_SEED, 0))

        def run(cov):
            shifted = dataclasses.replace(est, estimate=est.estimate - cov)
            monkeypatch.setattr(cli, "autocovariance_mc", lambda *args, **kwargs: [shifted])
            return outcomes(["autocovariance", "--k-list", "34"], capsys, "lag34_")

        assert run(0.0) == [True]
        self.assert_band(run, est.estimate, est.stderr, 5.0)

    def test_autocovariance_no_vacant_pair(self, monkeypatch, capsys):
        (est,) = autocovariance_mc([1], 200_000, seed=SeedSpec(DEFAULT_SEED, 0))
        assert est.both_vacant == 0
        for both_vacant, code in ((0, 0), (1, 1)):
            monkeypatch.setattr(cli, "autocovariance_mc",
                                lambda *args, **kwargs: [dataclasses.replace(est, both_vacant=both_vacant)])
            got, doc = run_json(["autocovariance", "--k-list", "1"], capsys)
            (entry,) = doc["checks"]["entries"]
            assert (got, entry["passed"]) == (code, not both_vacant)
            assert entry["detail"].startswith(f"{both_vacant} of 200000")

    def test_trials(self, monkeypatch, capsys):
        # the CLI's draws at the default replicas for --n-list 1000,10000; both
        # checks are one-sided, so the reference moves only towards failure
        sweep = trials_ratio_sweep([1000, 10_000], 100, seed=DEFAULT_SEED)
        argv = ["trials", "--n-list", "1000,10000"]

        def run(rows):
            monkeypatch.setattr(cli, "trials_ratio_sweep", lambda *args, **kwargs: rows)
            _, doc = run_json(argv, capsys)
            return {e["name"]: e["passed"] for e in doc["checks"]["entries"]}

        assert all(run(sweep).values())
        for i, row in enumerate(sweep):
            edge, se = row.mean_T - 3.0 * row.stderr_T, row.stderr_T
            for shift, ok in ((0.15, True), (-0.15, False), (-3.0, False)):
                rows = list(sweep)
                rows[i] = dataclasses.replace(row, coupon_mean=edge + shift * se)
                assert run(rows)[f"coupon_dominates_n{row.n}"] == ok
        a, b = sweep
        se = math.hypot(a.ratio_stderr, b.ratio_stderr)
        edge = b.ratio + 3.0 * se
        for shift, ok in ((-0.15, True), (0.15, False), (3.0, False)):
            checks = run([dataclasses.replace(a, ratio=edge + shift * se), b])
            assert checks["ratio_nondecreasing_n1000_to_n10000"] == ok

    def test_density_convergence(self, monkeypatch, capsys):
        # the CLI's draws at the default replicas for --n-list 10,100
        stats = [SampleStats.from_samples(simulate_direct_batch(n, 10_000, SeedSpec(DEFAULT_SEED, idx)))
                 for idx, n in enumerate((10, 100))]

        def run(means):
            monkeypatch.setattr(cli, "expected_M", dict(zip((10, 100), means)).__getitem__)
            return outcomes(["density-convergence", "--n-list", "10,100"], capsys, "mc_agrees_")

        assert run([float(expected_M(10)), float(expected_M(100))]) == [True, True]
        self.assert_band(run, np.array([s.mean for s in stats]), np.array([s.stderr for s in stats]), 5.0)

    def test_no_spread_uses_the_exact_sd(self, monkeypatch, capsys):
        # M_2 = 2 has no variance, so only the exact mean 2 passes there
        argv = ["density-convergence", "--n-list", "2", "--replicas", "2"]
        assert outcomes(argv, capsys, "mc_agrees_") == [True]
        monkeypatch.setattr(cli, "expected_M", lambda n: 2.5)
        assert outcomes(argv, capsys, "mc_agrees_") == [False]
        # at n = 300 the exact sd is sqrt(4e^-4 (n+2)) = 4.7, so the band is
        # 16.6 wide; seed 1 draws M = 256 twice there
        argv = ["density-convergence", "--n-list", "300", "--replicas", "2", "--seed", "1"]
        band = no_spread_band(300, 2)

        def run(mean):
            monkeypatch.setattr(cli, "expected_M_series", lambda n_max: np.full(n_max + 1, mean))
            _, doc = run_json(argv, capsys)
            entry = doc["checks"]["entries"][-1]
            assert entry["detail"].endswith(f"= {band:.3e}")
            return [entry["passed"]]

        self.assert_band(run, 256.0, band / 5.0, 5.0)

    def test_no_spread_needs_no_float_law(self, monkeypatch, capsys):
        # seed 62 draws equal M twice at n = 1e5, where the float law of M_n
        # would take tens of seconds to give the variance
        law = exact.distribution_M

        def capped(n, *args, **kwargs):
            assert n <= DISTRIBUTION_RATIONAL_CAP, f"the float law of M_{n} was computed"
            return law(n, *args, **kwargs)

        monkeypatch.setattr(exact, "distribution_M", capped)
        monkeypatch.setattr(cli, "distribution_M", capped)
        assert main(["density-convergence", "--n-list", "100000", "--replicas", "2", "--seed", "62"]) == 0
        assert f"= {no_spread_band(100_000, 2):.3e}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_no_spread_density_convergence(self, seed):
        # seed 1 is the command that failed against the old 1e-9 band; it
        # draws M = 4 twice, and seed 7 draws M = 2 twice, so both are judged
        # by the exact law's sd alone
        res = run_cli("density-convergence", "--n-list", "4", "--replicas", "2", "--seed", seed)
        assert res.returncode == 0, res.stderr
        assert f"= {no_spread_band(4, 2):.3e}\n" in res.stderr

    def test_no_spread_above_the_rational_cap(self):
        # seed 1 draws M = 256 twice at n = 300 (the first seed from 0 up whose
        # two simulate_direct_batch(300, 2, SeedSpec(seed, 0)) rows have equal
        # M); the check used to fail outright above the cap
        res = run_cli("density-convergence", "--n-list", "300", "--replicas", "2", "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert f"= {no_spread_band(300, 2):.3e}\n" in res.stderr

    def test_all_hits_no_longer_fails(self):
        # with 2 replicas seed 3 has no hits at t = 0.25, 0.5 and all hits from
        # t = 1 on: there the Wald stderr is 0, and a band taken from it fails
        res = run_cli("density-curve", "--replicas", "2", "--seed", "3")
        assert res.returncode == 0, res.stderr
        estimates = [line.split(",")[2] for line in res.stdout.splitlines()[1:]]
        assert estimates == ["0", "0", "1", "1", "1"]
        assert "check[ok] curve_t0.25" in res.stderr and "check[ok] curve_t4" in res.stderr

    def test_constant_pairs_no_longer_fail(self):
        # 2 pairs with occupancies (1, 0) at lag 0: the sample products are
        # equal, so the Wald stderr was 0 and the band 1e-9
        res = run_cli("autocovariance", "--k-list", "0,34", "--replicas", "2", "--seed", "1")
        assert res.returncode == 0, res.stderr
        # seed 0 occupies site 0 in both pairs, so the rarer value has no
        # spread at all, and the lag-0 band comes from e^-2 alone
        res = run_cli("autocovariance", "--k-list", "0", "--replicas", "2", "--seed", "0")
        assert res.returncode == 0, res.stderr
        assert "check[ok] lag0_is_bernoulli_variance: estimate 0.000000 vs exact 0.135335" in res.stderr


class TestInProcess:
    def test_main_returns_zero(self, capsys):
        code = main(["site-vacancy", "--n", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("site,vacancy")

    def test_parser_lists_all_subcommands(self):
        import argparse

        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {
            "density-convergence",
            "density-curve",
            "trials",
            "oracle",
            "site-vacancy",
            "autocovariance",
        }

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        import argparse

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}
        sampling = {"seed", "threads", "fmt", "out"}
        assert dests == {
            "density-convergence": {"n_list", "replicas", *sampling},
            "density-curve": {"t_grid", "replicas", "dist", *sampling},
            "trials": {"n_list", "replicas", *sampling},
            "autocovariance": {"k_list", "replicas", *sampling},
            "oracle": {"n_list", "fmt", "out"},
            "site-vacancy": {"n", "fmt", "out"},
        }
        fmt = {name: next(a for a in p._actions if a.dest == "fmt") for name, p in sub.choices.items()}
        assert {name: (tuple(a.choices), a.default) for name, a in fmt.items()} == {
            name: (("json",), "json") if name == "oracle" else (("csv", "json"), "csv") for name in fmt
        }

    def test_config_echoes_a_flag_added_to_the_parser(self, monkeypatch, capsys):
        # config is read off the parsed flags, so a new flag lands in it,
        # after the command's own, with no edit to the command
        import argparse

        build = cli.build_parser

        def with_extra():
            parser = build()
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            sub.choices["site-vacancy"].add_argument("--extra", default="x")
            return parser

        monkeypatch.setattr(cli, "build_parser", with_extra)
        assert main(["site-vacancy", "--n", "4", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {"n": 4, "extra": "x"}

    def test_autocovariance_calls_the_estimator_once(self, monkeypatch, capsys):
        # every lag is read off one sample, in one call with the whole lag
        # list; the benchmark's infinite.autocov probe wraps this name
        calls, estimate = [], cli.autocovariance_mc

        def spy(lags, *args, **kwargs):
            calls.append((list(lags), kwargs["seed"]))
            return estimate(lags, *args, **kwargs)

        monkeypatch.setattr(cli, "autocovariance_mc", spy)
        assert main(["autocovariance", "--k-list", "5,0,2", "--replicas", "1000", "--seed", "7"]) == 0
        assert calls == [([0, 2, 5], SeedSpec(7, 0))]
        assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]] == ["0", "2", "5"]

    @pytest.mark.parametrize(
        "command, flag, messy, tidy",
        [
            ("density-convergence", "--n-list", "20,10,20", "10,20"),
            ("density-curve", "--t-grid", "1,1,0.5", "0.5,1"),
            ("autocovariance", "--n-list", "2,1,1", "1,2"),
            ("oracle", "--n", "3,2,3", "2,3"),
        ],
    )
    def test_list_flags_are_sorted_and_deduplicated(self, command, flag, messy, tidy, capsys):
        # every list flag is sorted and deduplicated as it is parsed, so a
        # repeated entry gives the bytes of the tidy list and no check twice
        sizes = [] if command == "oracle" else ["--replicas", "2000"]
        outputs = []
        for values in (messy, tidy):
            assert main([command, flag, values, *sizes, "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        names = [e["name"] for e in json.loads(outputs[0])["checks"]["entries"]]
        assert len(names) == len(set(names)) > 0


class TestTrialsTable:
    def test_tau_star_quantiles_ordered_and_thread_free(self):
        # --threads is parsed and read by nothing, so it moves no byte
        argv = ("trials", "--n-list", "100,1000", "--replicas", "20")
        res = run_cli(*argv)
        assert res.returncode == 0, res.stderr
        header, *rows = (line.split(",") for line in res.stdout.splitlines())
        cols = [header.index(f"tau_star_q{q}") for q in ("05", "25", "50", "75", "95")]
        assert cols == list(range(cols[0], cols[0] + 5))
        assert [row[0] for row in rows] == ["100", "1000"]
        for row in rows:
            qs = [float(row[c]) for c in cols]
            assert qs == sorted(qs) and qs[0] > 0
        threaded = run_cli(*argv, "--threads", "2")
        assert threaded.returncode == 0 and threaded.stdout == res.stdout

    def test_n_list_is_sorted_and_deduplicated(self, capsys):
        # the sizes are sorted and deduplicated, so an unsorted list keeps the ratio check
        outputs = []
        for n_list in ("200,1000", "1000,200,1000"):
            assert main(["trials", "--n-list", n_list, "--replicas", "40", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        names = [e["name"] for e in json.loads(outputs[1])["checks"]["entries"]]
        assert "ratio_nondecreasing_n200_to_n1000" in names


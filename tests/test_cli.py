"""CLI harness: table shapes, determinism, exit codes, and JSON schemas."""
import dataclasses
import functools
import json
import math
import pathlib
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from pagepark import cli, infinite, oracle
from pagepark.cli import (
    _coupon_check,
    _curve_check,
    _decorrelation_check,
    _lag0_check,
    _mean_check,
    _no_vacant_pair_check,
    _ratio_check,
    build_parser,
    main,
)
from pagepark.core import DEFAULT_SEED, SeedSpec
from pagepark.exact import (
    DISTRIBUTION_RATIONAL_CAP,
    density_curve_closed_form,
    distribution_M,
    expected_M,
    limit_constants,
    per_site_vacancy_exact,
)
from pagepark.finite import occupancy_profile, simulate_direct_batch
from pagepark.infinite import autocovariance_mc, sample_runs
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

    def test_oracle_forces_json(self):
        res = run_cli("oracle", "--n", "4", "--format", "csv")
        assert res.returncode == 0
        assert "json-only" in res.stderr
        json.loads(res.stdout)

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
        "argv, entry, need",
        [
            (["oracle", "--n", "2,x"], "x", "need an integer in 2..10"),
            (["trials", "--n-list", "ten"], "ten", "need an integer >= 2"),
            (["density-curve", "--t-grid", "0.5,abc"], "abc", "need a finite time >= 0"),
        ],
        ids=["oracle", "trials", "density-curve"],
    )
    def test_list_flag_names_the_bad_entry(self, argv, entry, need, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"entry {entry!r} of {argv[-1]!r}: {need}, got {entry!r}" in err

    def test_usage_error_process_has_no_traceback(self):
        res = run_cli("trials", "--replicas", "1")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_env_seed_is_a_usage_error(self, value):
        # the environment seed goes through the --seed type: exit 2 before
        # any work, naming the variable, never a traceback
        res = run_cli("site-vacancy", "--n", "4", env={"PAGEPARK_SEED": value})
        assert res.returncode == 2
        assert res.stdout == ""
        assert "PAGEPARK_SEED" in res.stderr and "Traceback" not in res.stderr
        # an explicit --seed still wins over the environment
        assert run_cli("site-vacancy", "--n", "4", "--seed", "5", env={"PAGEPARK_SEED": value}).returncode == 0

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
            (["autocovariance", "--k-list", "0,3", "--replicas", "100"], "_occupancy_pair_chunk", ZeroDivisionError),
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


class TestCheckPower:
    """The statistical checks at the default replicas: a reference placed
    6 Wald stderr from the estimate fails on either side, and the Wilson bands
    are as wide as the Wald bands they replace to within 5%."""

    @staticmethod
    def assert_band(check, est, centre, stderr, z):
        for sign in (-1.0, 1.0):
            assert check(est, centre + sign * 0.95 * z * stderr)[0]
            assert not check(est, centre + sign * 1.05 * z * stderr)[0]
            assert not check(est, centre + sign * 6.0 * stderr)[0]

    def test_density_curve(self):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        est = sample_runs(100_000, seed=SeedSpec(DEFAULT_SEED, 0)).density_at_time(grid)
        for mc, closed in zip(est, density_curve_closed_form(grid)):
            assert _curve_check(mc, float(closed))[0]
            self.assert_band(_curve_check, mc, mc.estimate, mc.stderr, 4.0)

    def test_autocovariance_lag0(self):
        est = autocovariance_mc(0, 200_000, seed=SeedSpec(DEFAULT_SEED, 0))
        vac = limit_constants()["vacancy"]
        assert _lag0_check(est, vac * (1.0 - vac))[0]
        self.assert_band(_lag0_check, est, est.estimate, est.stderr, 5.0)

    def test_autocovariance_decorrelated(self):
        est = autocovariance_mc(34, 200_000, seed=SeedSpec(DEFAULT_SEED, 8))
        assert _decorrelation_check(est)[0]
        self.assert_band(_decorrelation_check, est, est.estimate, est.stderr, 5.0)

    def test_autocovariance_no_vacant_pair(self):
        est = autocovariance_mc(1, 200_000, seed=SeedSpec(DEFAULT_SEED, 1))
        assert est.both_vacant == 0 and _no_vacant_pair_check(est)[0]
        ok, detail = _no_vacant_pair_check(dataclasses.replace(est, both_vacant=1))
        assert not ok and detail.startswith("1 of 200000")

    def test_trials(self):
        # the CLI's draws at the default replicas for --n-list 1000,10000; both
        # checks are one-sided, so the reference moves only towards failure
        a, b = trials_ratio_sweep([1000, 10_000], 100, seed=DEFAULT_SEED)
        for row in (a, b):
            assert _coupon_check(row)[0]
            edge, se = row.mean_T - 3.0 * row.stderr_T, row.stderr_T
            assert _coupon_check(dataclasses.replace(row, coupon_mean=edge + 0.15 * se))[0]
            assert not _coupon_check(dataclasses.replace(row, coupon_mean=edge - 0.15 * se))[0]
            assert not _coupon_check(dataclasses.replace(row, coupon_mean=edge - 3.0 * se))[0]
        assert _ratio_check(a, b)[0]
        se = math.hypot(a.ratio_stderr, b.ratio_stderr)
        edge = b.ratio + 3.0 * se
        assert _ratio_check(dataclasses.replace(a, ratio=edge - 0.15 * se), b)[0]
        assert not _ratio_check(dataclasses.replace(a, ratio=edge + 0.15 * se), b)[0]
        assert not _ratio_check(dataclasses.replace(a, ratio=edge + 3.0 * se), b)[0]

    def test_density_convergence(self):
        # the CLI's draws at the default replicas for --n-list 10,100
        for idx, n in enumerate((10, 100)):
            m_stats = SampleStats.from_samples(simulate_direct_batch(n, 10_000, SeedSpec(DEFAULT_SEED, idx))[0])
            em = float(expected_M(n))
            check = functools.partial(_mean_check, n)
            assert check(m_stats, em)[0]
            self.assert_band(check, m_stats, m_stats.mean, m_stats.stderr, 5.0)

    def test_no_spread_uses_the_exact_sd(self):
        # Var(M_4) = 8/9: two equal samples at n = 4 are 5 sqrt(8/9)/sqrt(2)
        # = 3.33 wide either way; M_2 has no variance, so only 2 passes there
        for m in (2, 4):
            ok, detail = _mean_check(4, SampleStats.from_samples([m, m]), 10 / 3)
            assert ok and "no spread" in detail
        assert _mean_check(2, SampleStats.from_samples([2, 2]), 2.0)[0]
        assert not _mean_check(2, SampleStats.from_samples([2, 2]), 2.5)[0]
        # above the rational cap the band comes from the float law (sd 4.4 at
        # n = 257, so the band is 15.4 wide either way)
        n = DISTRIBUTION_RATIONAL_CAP + 1
        flat = SampleStats.from_samples([222, 222])
        band = 5.0 * math.sqrt(distribution_M(n).variance() / 2)
        ok, detail = _mean_check(n, flat, 222.0)
        assert ok and "no spread" in detail
        for sign in (-1.0, 1.0):
            assert _mean_check(n, flat, 222.0 + sign * 0.95 * band)[0]
            assert not _mean_check(n, flat, 222.0 + sign * 1.05 * band)[0]

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_no_spread_density_convergence(self, seed):
        # seed 1 is the command that failed against the old 1e-9 band; it
        # draws M = 4 twice, and seed 7 draws M = 2 twice, so both use the
        # exact-sd band
        res = run_cli("density-convergence", "--n-list", "4", "--replicas", "2", "--seed", seed)
        assert res.returncode == 0, res.stderr
        assert "no spread" in res.stderr

    def test_no_spread_above_the_rational_cap(self):
        # seed 3 draws M = 260 twice at n = 300; the check used to fail
        # outright above the cap
        res = run_cli("density-convergence", "--n-list", "300", "--replicas", "2", "--seed", "3")
        assert res.returncode == 0, res.stderr
        assert "no spread" in res.stderr

    def test_all_hits_no_longer_fails(self):
        # with 2 replicas both hit at t = 4: the Wald band was 4 * 1e-150 wide
        res = run_cli("density-curve", "--replicas", "2", "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert "check[ok] curve_t4" in res.stderr

    def test_constant_pairs_no_longer_fail(self):
        # 2 pairs with occupancies (1, 0) at lag 0: the sample products are
        # equal, so the Wald stderr was 0 and the band 1e-9
        res = run_cli("autocovariance", "--k-list", "0,34", "--replicas", "2", "--seed", "1")
        assert res.returncode == 0, res.stderr


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


class TestTrialsTable:
    def test_tau_star_quantiles_ordered_and_thread_free(self):
        # 20 replicas are two kernel jobs at n = 1000, so --threads 2 splits them
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


def assert_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err


# The three classes below keep the usage-error cases of the scripts that the
# subcommands replaced under their first test names; test_usage_errors_exit_2
# runs every one of these cases too.


class TestDensityScript:
    # density-convergence and density-curve print the two density tables; a
    # bad value is a usage error on every one of them that takes the flag
    COMMANDS = {
        "--replicas": ("density-convergence", "density-curve"),
        "--n-list": ("density-convergence",),
        "--t-grid": ("density-curve",),
        "--threads": ("density-convergence", "density-curve"),
    }

    @pytest.mark.parametrize(
        "argv",
        [["--replicas", v] for v in ("1", "0", "many")]
        + [["--n-list", v] for v in ("1", "10,1", ",", "ten")]
        + [["--t-grid", v] for v in ("-1", "nan", "inf", "x")]
        + [["--threads", v] for v in ("0", "x")],
    )
    def test_bad_values_are_usage_errors(self, argv, capsys):
        for command in self.COMMANDS[argv[0]]:
            assert_usage_error([command, *argv], argv[0], capsys)


class TestTrialsScript:
    @pytest.mark.parametrize(
        "argv",
        [["--replicas", v] for v in ("1", "0", "many")]
        + [["--n-list", v] for v in ("1", "10,1", ",", "x")]
        + [["--threads", v] for v in ("0", "x")],
    )
    def test_bad_values_are_usage_errors(self, argv, capsys):
        assert_usage_error(["trials", *argv], argv[0], capsys)


class TestAuditScript:
    @pytest.mark.parametrize("value", ["0", "1", "11", "x"])
    def test_n_max_out_of_range_is_usage_error(self, value, capsys):
        # 0 and 1 would audit nothing and pass; 11 is past the enumeration cap
        assert_usage_error(["oracle", "--n", value], "--n", capsys)

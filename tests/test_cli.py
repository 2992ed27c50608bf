"""CLI harness: table shapes, determinism, exit codes, and JSON schemas."""
import json
import pathlib
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from pagepark.cli import build_parser, main

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"
CLI = [sys.executable, "-m", "pagepark.cli"]


def run_cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    import os

    full_env = dict(os.environ)
    full_env.pop("PAGEPARK_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env, timeout=600
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

    @pytest.mark.parametrize("command", ["trials", "density-curve", "autocovariance"])
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

    def test_oracle_cap_errors(self):
        res = run_cli("oracle", "--n", "11")
        assert res.returncode != 0
        assert res.stdout == ""

    def test_bad_flag_values(self):
        assert run_cli("site-vacancy", "--n", "1").returncode != 0
        assert run_cli("trials", "--n-list", "1,5").returncode != 0
        assert run_cli("density-curve", "--t-grid", "-1").returncode != 0
        assert run_cli("density-curve", "--threads", "0").returncode != 0

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
        + [["density-curve", "--threads", value] for value in ("0", "-2")],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        # argparse rejects the value before any work starts: exit 2, never an
        # exception out of main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument" in captured.err

    def test_usage_error_process_has_no_traceback(self):
        res = run_cli("trials", "--replicas", "1")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_checks_reported_on_stderr(self):
        res = run_cli("site-vacancy", "--n", "10")
        assert "check[ok]" in res.stderr


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

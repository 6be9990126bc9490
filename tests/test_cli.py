import importlib
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config_doc
from it2mpc.cli import main
from it2mpc.tracefile import read_trace


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config_doc()))
    return path


@pytest.fixture
def tiny_with_gains(tmp_path):
    doc = tiny_config_doc()
    zero = [[0.0, 0.0], [0.0, 0.0]]
    doc["gains"] = [[zero, zero]]
    path = tmp_path / "tiny_gains.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSimulate:
    def test_writes_trace_and_summary(self, capsys, tiny_path, tmp_path):
        out = tmp_path / "run.csv"
        rc, stdout, _ = run_cli(capsys, "simulate", str(tiny_path),
                                "--out", str(out), "--steps", "12")
        assert rc == 0
        assert "simulated 12 steps" in stdout
        back = read_trace(out)
        assert back["data"].shape[0] == 12
        assert back["summary"]["n_steps"] == 12

    def test_bundled_name_resolves(self, capsys):
        rc, stdout, _ = run_cli(capsys, "simulate", "example1",
                                "--steps", "3")
        assert rc == 0
        assert "three-machine benchmark" in stdout

    def test_seed_override_changes_run(self, capsys, tiny_with_gains,
                                       tmp_path):
        outs = []
        for run, seed in enumerate(("11", "12", "11")):
            out = tmp_path / f"r{run}.csv"
            rc, _, _ = run_cli(capsys, "simulate", str(tiny_with_gains),
                               "--out", str(out), "--seed", seed)
            assert rc == 0
            outs.append(read_trace(out)["data"])
        assert not np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_supplied_gains_reported(self, capsys, tiny_with_gains):
        rc, stdout, _ = run_cli(capsys, "simulate", str(tiny_with_gains))
        assert rc == 0
        assert "supplied gains" in stdout

    def test_ignore_gains_synthesizes(self, capsys, tiny_with_gains):
        rc, stdout, _ = run_cli(capsys, "simulate", str(tiny_with_gains),
                                "--ignore-gains", "--steps", "4")
        assert rc == 0
        assert "resynth=once" in stdout
        assert "solver calls: 0" not in stdout

    def test_iss_flag(self, capsys, tiny_path):
        rc, stdout, _ = run_cli(capsys, "simulate", str(tiny_path),
                                "--steps", "6", "--iss")
        assert rc == 0
        assert "dissipation check" in stdout

    def test_unwritable_out_is_runtime_error(self, capsys, tiny_path,
                                             tmp_path):
        rc, _, stderr = run_cli(capsys, "simulate", str(tiny_path), "--out",
                                str(tmp_path / "no" / "dir" / "t.csv"))
        assert rc == 4
        assert json.loads(stderr)["error"] == "runtime"


class TestSynthesizeVerifyRpi:
    def test_full_chain(self, capsys, tiny_path, tmp_path):
        cert = tmp_path / "cert.json"
        rc, stdout, _ = run_cli(capsys, "synthesize", str(tiny_path),
                                "--out", str(cert))
        assert rc == 0
        assert "synthesis feasible" in stdout
        assert "proven lower bound" in stdout
        assert "Z" not in json.loads(cert.read_text())

        rc, stdout, _ = run_cli(capsys, "verify", str(tiny_path),
                                "--gains", str(cert))
        assert rc == 0
        assert "FEASIBLE" in stdout

        rc, stdout, _ = run_cli(capsys, "rpi-check", str(tiny_path),
                                "--gains", str(cert), "--samples", "150")
        assert rc == 0
        assert "invariant on every sample" in stdout

    def test_verify_report_file(self, capsys, tiny_path, tmp_path):
        cert = tmp_path / "cert.json"
        run_cli(capsys, "synthesize", str(tiny_path), "--out", str(cert))
        report = tmp_path / "report.json"
        rc, _, _ = run_cli(capsys, "verify", str(tiny_path),
                           "--gains", str(cert), "--out", str(report),
                           "--no-containment")
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["feasible"] is True
        assert doc["worst"] <= 0.0
        assert not any(k.startswith("containment") for k in doc["margins"])

    def test_shrunken_certificate_fails_verification(self, capsys, tiny_path,
                                                     tmp_path):
        cert = tmp_path / "cert.json"
        run_cli(capsys, "synthesize", str(tiny_path), "--out", str(cert))
        doc = json.loads(cert.read_text())
        doc["xi"] = [x * 0.01 for x in doc["xi"]]
        cert.write_text(json.dumps(doc))
        rc, stdout, stderr = run_cli(capsys, "verify", str(tiny_path),
                                     "--gains", str(cert))
        assert rc == 2
        assert "INFEASIBLE" in stdout
        assert json.loads(stderr)["error"] == "infeasible"

    def test_infeasible_synthesis_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tiny_config_doc(stable=False)))
        rc, _, stderr = run_cli(capsys, "synthesize", str(path))
        assert rc == 2

        def reject(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        record = json.loads(stderr, parse_constant=reject)
        assert record["error"] == "infeasible"
        assert "message" in record
        # the phase-I lower bound, finite and positive: a proof
        assert record["best_excess"] > 0.0

    def test_verify_three_rule_grid(self, capsys, tmp_path):
        # example2's subsystems have three model and three controller rules:
        # 66 x 66 grid pairs each; the figures are those of the per-point
        # sweep the batched one replaced
        from it2mpc.configio import load_bundled_config, save_certificate
        from it2mpc.lmis import DecisionVars
        cfg = load_bundled_config("example2_stabilized")
        dv = DecisionVars(gains=cfg.gains,
                          xi=[3.0] * cfg.system.n_subsystems)
        cert, report = tmp_path / "cert.json", tmp_path / "report.json"
        save_certificate(dv, cert)
        rc, stdout, stderr = run_cli(capsys, "verify", "example2_stabilized",
                                     "--gains", str(cert),
                                     "--out", str(report))
        assert rc == 2
        assert "INFEASIBLE" in stdout
        assert json.loads(stderr)["error"] == "infeasible"
        doc = json.loads(report.read_text())
        assert doc["blended_worst"] == 3.8557819641954865
        assert doc["worst"] == 34.60959171020022

    def test_verify_tol_loosens_verdict(self, capsys, tiny_path, tmp_path):
        cert = tmp_path / "cert.json"
        run_cli(capsys, "synthesize", str(tiny_path), "--out", str(cert))
        doc = json.loads(cert.read_text())
        doc["xi"] = [x * 0.01 for x in doc["xi"]]
        cert.write_text(json.dumps(doc))
        rc, _, _ = run_cli(capsys, "verify", str(tiny_path),
                           "--gains", str(cert), "--tol", "1e9")
        assert rc == 0

    def test_synthesis_margin_knobs_accepted(self, capsys, tiny_path,
                                             tmp_path):
        cert = tmp_path / "cert.json"
        rc, stdout, _ = run_cli(capsys, "synthesize", str(tiny_path),
                                "--out", str(cert), "--tol", "1e-8")
        assert rc == 0
        assert "synthesis feasible" in stdout

    @pytest.mark.parametrize("verb", ["simulate", "synthesize"])
    def test_retired_margin_flag_is_rejected(self, capsys, tiny_path, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, str(tiny_path), "--margin", "1e-5"])
        assert exc.value.code == 3      # a usage error, not "infeasible"
        assert "unrecognized arguments: --margin" in capsys.readouterr().err

    def test_xi_mode_override(self, capsys, tiny_path, tmp_path):
        cert = tmp_path / "cert.json"
        rc, stdout, _ = run_cli(capsys, "synthesize", str(tiny_path),
                                "--out", str(cert), "--xi-mode",
                                "per_subsystem")
        assert rc == 0
        assert "per_subsystem mode" in stdout
        assert json.loads(cert.read_text())["meta"]["xi_mode"] == \
            "per_subsystem"


class TestUsageErrors:
    """argparse's own exit code, 2, is the CLI's "infeasible"; a command
    line it cannot read must exit 3 like any other configuration error."""

    @staticmethod
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    def test_option_value_read_as_an_option(self, capsys):
        # "-1e-9" looks like an option to argparse, so --tol has no value
        rc = self.exit_code(["synthesize", "example1_synthesis", "--tol",
                             "-1e-9"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: it2mpc synthesize")
        record = json.loads(err.strip().splitlines()[-1])
        assert record == {"error": "usage",
                          "message": "it2mpc synthesize: argument --tol: "
                                     "expected one argument"}

    def test_attached_negative_tol_is_a_config_error(self, capsys):
        rc = self.exit_code(["synthesize", "example1_synthesis",
                             "--tol=-1e-9"])
        assert rc == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert record["message"].startswith("--tol: ")

    def test_unknown_verb(self, capsys):
        rc = self.exit_code(["bogus"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: it2mpc ")
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "usage"
        assert "invalid choice: 'bogus'" in record["message"]

    def test_help_still_exits_0(self, capsys):
        assert self.exit_code(["verify", "--help"]) == 0
        assert "--gains" in capsys.readouterr().out


class TestErrorReporting:
    def test_unknown_config_reference(self, capsys):
        rc, _, stderr = run_cli(capsys, "simulate", "example99")
        assert rc == 3
        record = json.loads(stderr)
        assert record["error"] == "config"
        assert "bundled names" in record["message"]

    def test_malformed_config_names_field(self, capsys, tmp_path):
        doc = tiny_config_doc()
        doc["fixed_params"]["lam"] = [2.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, stderr = run_cli(capsys, "simulate", str(path))
        assert rc == 3
        assert "lam" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("field, value", [
        ("rho_bar", 1.5), ("seed", -1)])
    def test_late_failing_field_is_config_error(self, capsys, tmp_path,
                                                field, value):
        # both loaded, and then simulate exited 4 on the first step
        doc = tiny_config_doc()
        if field == "rho_bar":
            doc["simulation"].update(mode="reconstructed", rho_bar=value)
            want = "bad.json.simulation.rho_bar: must lie in [0, 1]"
        else:
            doc["simulation"]["disturbance"]["seed"] = value
            want = ("bad.json.simulation.disturbance.seed: expected a "
                    "nonnegative integer")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, stderr = run_cli(capsys, "simulate", str(path), "--steps", "2")
        assert rc == 3
        assert json.loads(stderr) == {"error": "config", "message": want}

    def test_unknown_xi_mode_is_config_error(self, capsys, tmp_path):
        doc = tiny_config_doc()
        doc["synthesis"]["xi_mode"] = "bogus"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, stderr = run_cli(capsys, "synthesize", str(path))
        assert rc == 3
        record = json.loads(stderr)
        assert record["error"] == "config"
        assert ".synthesis" in record["message"]
        assert "xi mode" in record["message"]

    @pytest.mark.parametrize("density", [1, 0])
    def test_grid_density_below_two_is_config_error(self, capsys, tmp_path,
                                                    density):
        from it2mpc.configio import save_certificate
        from it2mpc.lmis import DecisionVars
        doc = tiny_config_doc()
        doc["synthesis"]["grid_density"] = density
        path, cert = tmp_path / "bad.json", tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        gains = [[np.zeros((2, 2)), np.zeros((2, 2))]]
        save_certificate(DecisionVars(gains=gains, xi=[1.0]), cert)
        rc, _, stderr = run_cli(capsys, "verify", str(path),
                                "--gains", str(cert))
        assert rc == 3
        record = json.loads(stderr)
        assert record["error"] == "config"
        assert ".synthesis" in record["message"]
        assert "grid_density" in record["message"]

    @pytest.mark.parametrize("field, value", [
        ("strictness", "1e-9"), ("strictness", -1.0),
        ("strictness", float("nan"))])
    def test_bad_tolerance_is_config_error(self, capsys, tmp_path, field,
                                           value):
        doc = tiny_config_doc()
        doc["synthesis"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, stderr = run_cli(capsys, "synthesize", str(path))
        assert rc == 3
        record = json.loads(stderr)
        assert record["error"] == "config"
        assert record["message"].startswith(f"bad.json.synthesis.{field}: ")

    @pytest.mark.parametrize("verb", ["simulate", "synthesize"])
    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf"])
    def test_bad_tol_override_is_config_error(self, capsys, tiny_path, verb,
                                              tol):
        rc, _, stderr = run_cli(capsys, verb, str(tiny_path), f"--tol={tol}")
        assert rc == 3
        record = json.loads(stderr)
        assert record["error"] == "config"
        assert record["message"].startswith("--tol: must be a finite number "
                                            ">= 0")

    @pytest.mark.parametrize("field, value, path", [
        ("xi", 5, "cert.json.xi: "), ("gains", 3, "cert.json.gains: "),
        ("gains", [5, 5, 5], "cert.json.gains[1]: ")])
    def test_mistyped_certificate_exits_3(self, capsys, tmp_path, field,
                                          value, path):
        fixture = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "fixtures" / "example1_certificate.json")
        raw = json.loads(fixture.read_text())
        raw[field] = value
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(raw))
        rc, _, stderr = run_cli(capsys, "verify", "example1_synthesis",
                                "--gains", str(cert))
        assert rc == 3
        record = json.loads(stderr)
        assert record["error"] == "config"
        assert record["message"].startswith(path)

    def test_certificate_short_of_subsystems_exits_3(self, capsys, tmp_path):
        # 2 gain lists for the 3 subsystems of example1_synthesis
        fixture = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "fixtures" / "example1_certificate.json")
        raw = json.loads(fixture.read_text())
        raw["gains"] = raw["gains"][:2]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(raw))
        rc, _, stderr = run_cli(capsys, "verify", "example1_synthesis",
                                "--gains", str(cert))
        assert rc == 3
        record = json.loads(stderr)
        assert record["error"] == "config"
        assert record["message"].startswith("cert.json.gains: ")

    def test_integer_no_float_holds_is_shown_by_its_digits(self, capsys,
                                                           tmp_path):
        # a 401-digit JSON integer: exit 3, its field path, and its digit
        # count in place of the 401 digits
        doc = tiny_config_doc()
        doc["fixed_params"]["alpha"] = 10 ** 400
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        rc, _, stderr = run_cli(capsys, "synthesize", str(path))
        assert rc == 3
        assert json.loads(stderr) == {
            "error": "config",
            "message": "big.json.fixed_params.alpha: expected a finite "
                       "number, got an integer of 401 digits"}

    def test_stderr_is_one_json_line(self, capsys):
        rc, _, stderr = run_cli(capsys, "simulate", "nope")
        assert rc == 3
        lines = stderr.strip().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])

    def test_non_finite_numbers_are_written_as_null(self, capsys):
        # RFC 8259 JSON has no Infinity or NaN: every non-finite float,
        # numpy's included, becomes null and the finite ones pass through
        from it2mpc.cli import _diag

        def reject(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        _diag("infeasible", "m", best_excess=np.float64(np.inf),
              low=float("-inf"), gap=float("nan"), worst=-0.5, at_step=3)
        record = json.loads(capsys.readouterr().err, parse_constant=reject)
        assert record == {"error": "infeasible", "message": "m",
                          "best_excess": None, "low": None, "gap": None,
                          "worst": -0.5, "at_step": 3}


class TestListing:
    def test_configs_subcommand(self, capsys):
        rc, stdout, _ = run_cli(capsys, "configs")
        assert rc == 0
        for name in ("example1", "example1_synthesis", "example2",
                     "example2_stabilized"):
            assert name in stdout

    def test_console_script_target_runs(self, capsys):
        # the [project.scripts] wiring, checked without installing the package
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module_name, func_name = scripts["it2mpc"].split(":")
        entry = getattr(importlib.import_module(module_name), func_name)
        assert entry(["configs"]) == 0
        assert "example1" in capsys.readouterr().out

    @pytest.mark.skipif(shutil.which("it2mpc") is None,
                        reason="console script not on PATH")
    def test_console_entry_point(self):
        proc = subprocess.run(["it2mpc", "configs"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "example1" in proc.stdout


class TestChecksThatCheckNothing:
    """rpi-check and verify pass only when something was checked: a sample
    count below 1 or a non-finite tolerance is a usage error, and a
    non-finite number in a config or certificate a config error (exit 3).
    A step count or seed below 0 is a usage error too."""

    FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
               / "example1_certificate.json")

    @staticmethod
    def usage_message(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "usage"
        return record["message"]

    @pytest.mark.parametrize("option, message", [
        ("--samples=0", "argument --samples: expected at least 1, got 0"),
        ("--samples=-5", "argument --samples: expected at least 1, got -5"),
        ("--tol=nan", "argument --tol: expected a finite number, got 'nan'"),
        ("--tol=inf", "argument --tol: expected a finite number, got 'inf'"),
        ("--seed=-1", "argument --seed: expected at least 0, got -1")])
    def test_rpi_check_usage(self, capsys, option, message):
        got = self.usage_message(capsys, ["rpi-check", "example1_synthesis",
                                          "--gains", str(self.FIXTURE), option])
        assert got == f"it2mpc rpi-check: {message}"

    @pytest.mark.parametrize("options, message", [
        # a negative step count or seed reached the run and exited 4
        (["--steps", "-1"], "argument --steps: expected at least 0, got -1"),
        (["--steps", "1", "--seed", "-1"],
         "argument --seed: expected at least 0, got -1"),
        (["--steps", "2.5"], "argument --steps: expected an integer, got '2.5'")])
    def test_simulate_usage(self, capsys, options, message):
        got = self.usage_message(capsys, ["simulate", "example1", *options])
        assert got == f"it2mpc simulate: {message}"

    @pytest.mark.parametrize("config", ["example1_synthesis",
                                        "example2_stabilized"])
    def test_verify_infinite_tol(self, capsys, tmp_path, config):
        # at --tol inf example2_stabilized's infeasible gains read FEASIBLE
        cert = self.FIXTURE
        if config == "example2_stabilized":
            from it2mpc.configio import load_bundled_config, save_certificate
            from it2mpc.lmis import DecisionVars
            cfg = load_bundled_config(config)
            cert = tmp_path / "cert.json"
            save_certificate(DecisionVars(gains=cfg.gains, xi=[3.0] * 2), cert)
        got = self.usage_message(capsys, ["verify", config, "--gains",
                                          str(cert), "--tol", "inf"])
        assert got == ("it2mpc verify: argument --tol: expected a finite "
                       "number, got 'inf'")

    @pytest.mark.parametrize("verb", ["rpi-check", "verify"])
    @pytest.mark.parametrize("field, value, message", [
        pytest.param("xi", float("nan"),
                     "xi[1]: expected a finite number, got nan",
                     id="xi-cert.json.xi[1]"),
        pytest.param("xi", 0.0, "xi[1]: expected a set size > 0, got 0.0",
                     id="xi-zero"),
        pytest.param("xi", -1.0, "xi[1]: expected a set size > 0, got -1.0",
                     id="xi-negative"),
        pytest.param("gains", float("nan"),
                     "gains[1][1][1][1]: expected a finite number, got nan",
                     id="gains-cert.json.gains[1][1][1][1]")])
    def test_nan_certificate_exits_3(self, capsys, tmp_path, verb, field,
                                     value, message):
        # a set size <= 0 was a runtime failure (exit 4) with no field path
        raw = json.loads(self.FIXTURE.read_text())
        if field == "xi":
            raw["xi"][0] = value
        else:
            raw["gains"][0][0][0][0] = value
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(raw))
        rc, _, stderr = run_cli(capsys, verb, "example1_synthesis",
                                "--gains", str(cert))
        assert rc == 3
        assert json.loads(stderr) == {"error": "config",
                                      "message": f"cert.json.{message}"}

    def test_nan_input_limit_exits_3(self, capsys, tmp_path):
        # a NaN u_max used to give a feasible certificate with no input rows
        from it2mpc.configio import load_bundled_config
        doc = load_bundled_config("example1_synthesis").data
        doc["subsystems"][0]["u_max"] = [float("nan")]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, stderr = run_cli(capsys, "synthesize", str(path))
        assert rc == 3
        assert json.loads(stderr)["message"] == (
            "bad.json.subsystems[1].u_max[1]: expected a finite number, "
            "got nan")

"""Command-line harness: exit codes, CSV schemas, manifests, and
reproducibility of emitted files."""

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from fwdvol import QuadratureConfig, call_price, flat_curves, OptionSpec
from fwdvol.cli import main
from fwdvol.pricing import price_slices
from fwdvol.driftfactor import drift_factor_result

from test_model_core import FIG1, make


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPriceCommand:
    def test_reference_price_on_stdout(self, capsys, curves, quad):
        assert run(["price", "--t-e", 1, "--strike", 1]) == 0
        out = capsys.readouterr().out
        analytic = call_price(OptionSpec(1.0, 1.0, 1.0, "call"), curves, make(), quad)
        assert float(out.split("price =")[1].split()[0]) == analytic
        assert "implied_vol" in out

    def test_quadrature_line_reports_what_ran(self, capsys, curves):
        # The 1y slice stops after the first block (theta <= 60) with 76
        # steps; the 0.1y slice needs a second block, each at the 30-step floor.
        assert run(["price", "--t-e", 1, "--strike", 1]) == 0
        assert ("quadrature: theta_stop=60 theta_max=200 nodes_per_panel=64 ode_steps=76"
                in capsys.readouterr().out)
        assert run(["price", "--t-e", 0.1, "--strike", 1, "--option", "put"]) == 0
        assert ("quadrature: theta_stop=120 theta_max=200 nodes_per_panel=64 ode_steps=30+30"
                in capsys.readouterr().out)
        (result,) = price_slices([(0.1, 0.1, [1.0])], curves, make())
        assert (result.theta_stop, result.steps) == (120.0, (30, 30))

    def test_tiny_strike_prices_the_forward(self, capsys):
        assert run(["price", "--t-e", 1, "--strike", 1e-8]) == 0
        value = float(capsys.readouterr().out.split("price =")[1].split()[0])
        assert value == pytest.approx(1.0, rel=1e-6)

    def test_missing_params_file_is_input_error(self, tmp_path):
        assert run(["price", "--t-e", 1, "--strike", 1,
                    "--params", tmp_path / "nope.json"]) == 2

    def test_invalid_params_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**FIG1, "rho": 2.0}))
        assert run(["price", "--t-e", 1, "--strike", 1, "--params", bad]) == 2

    def test_starved_quadrature_is_numerical_error(self):
        # A 5-wide integration window leaves a fat tail behind.
        assert run(["price", "--t-e", 1, "--strike", 1, "--theta-max", 5]) == 3

    def test_json_output_with_manifest(self, tmp_path):
        out = tmp_path / "price.json"
        assert run(["price", "--t-e", 1, "--strike", 1.1, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert {"price", "implied_vol"} <= payload.keys()
        manifest = json.loads((tmp_path / "price.json.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out)] == digest


class TestTermStructureCommand:
    def test_csv_schema_and_decay(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert run(["term-structure", "--expiries", "0.25,0.5,1,2", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t_e", "T", "K", "price", "implied_vol"]
        vols = [float(r[4]) for r in rows[1:]]
        assert vols == sorted(vols, reverse=True)

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["term-structure", "--expiries", "0.5,1", "--out", a])
        run(["term-structure", "--expiries", "0.5,1", "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestSmileCommand:
    def test_flat_without_vol_of_vol(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({**FIG1, "alpha": 0.0}))
        out = tmp_path / "smile.csv"
        assert run(["smile", "--strikes", "0.5,0.8,1.0,1.5,2.0",
                    "--params", params, "--out", out]) == 0
        vols = [float(r[4]) for r in read_csv(out)[1:]]
        assert max(vols) - min(vols) <= 1e-6

    def test_reference_set_smile_is_bent(self, tmp_path):
        out = tmp_path / "smile.csv"
        assert run(["smile", "--strikes", "0.5,0.8,1.0,1.5,2.0", "--out", out]) == 0
        vols = [float(r[4]) for r in read_csv(out)[1:]]
        assert max(vols) - min(vols) >= 0.005


class TestMcPriceCommand:
    def test_vanilla_smoke(self, capsys):
        assert run(["mc-price", "--t-e", 1, "--strike", 1,
                    "--paths", 4000, "--steps", 20]) == 0
        out = capsys.readouterr().out
        assert "std_error" in out

    def test_seeded_outputs_reproduce(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["mc-price", "--t-e", 1, "--strike", 1, "--paths", 4000,
                "--steps", 20, "--seed", 7]
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_asian_prompt_payoff(self, capsys, tmp_path):
        schedule = tmp_path / "fixings.json"
        schedule.write_text(json.dumps([[0.25, 0.5], [0.5, 1.0]]))
        assert run(["mc-price", "--payoff", "asian_prompt", "--strike", 0.9,
                    "--fixings", schedule, "--horizon", 0.5,
                    "--paths", 4000, "--steps", 20]) == 0
        assert "std_error" in capsys.readouterr().out


class TestDriftStudyCommand:
    def test_csv_schema_and_exact_zero_row(self, tmp_path):
        out = tmp_path / "study.csv"
        assert run(["drift-study", "--alphas", "0", "--paths", 4000,
                    "--steps", 20, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["alpha", "fwd_err_bp", "fwd_stderr_bp",
                           "atm_vol_err_pct", "atm_vol_stderr_pct",
                           "otm_vol_err_pct", "otm_vol_stderr_pct"]
        assert abs(float(rows[1][1])) <= 1e-8


class TestKTableCommand:
    def test_schema_and_values(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["k-table", "--T", 2.0, "--t-min", 0.5, "--t-max", 1.0,
                    "--n", 2, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "T", "k_sq", "method"]
        expected = drift_factor_result(0.5, 2.0, make())
        assert float(rows[1][2]) == pytest.approx(expected.k_sq, rel=1e-12)
        assert rows[1][3] == expected.method


class TestCalibrateCommand:
    def test_round_trip_smoke(self, tmp_path, curves):
        from fwdvol import smile_slice

        quotes = []
        for K, vol in smile_slice([0.9, 1.0, 1.1], 1.0, 1.0, curves, make(),
                                  QuadratureConfig()):
            quotes.append({"t_e": 1.0, "T": 1.0, "K": K, "vol": vol})
        qfile = tmp_path / "quotes.json"
        qfile.write_text(json.dumps(quotes))
        out = tmp_path / "fitted.json"
        assert run(["calibrate", "--quotes", qfile, "--budget", 25,
                    "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert "params" in payload and "objective" in payload
        assert payload["params"]["sigma"] > 0

    def test_malformed_quotes_is_input_error(self, tmp_path):
        qfile = tmp_path / "quotes.json"
        qfile.write_text("{not json")
        assert run(["calibrate", "--quotes", qfile]) == 2


class TestEntryPoints:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fwdvol", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "drift-study" in proc.stdout

    def test_unknown_preset_is_input_error(self):
        assert run(["price", "--t-e", 1, "--strike", 1, "--preset", "zzz"]) == 2

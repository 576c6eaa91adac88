"""Command-line harness: exit codes, CSV schemas, manifests, and
reproducibility of emitted files."""

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from fwdvol import QuadratureConfig, call_price, flat_curves, OptionSpec
from fwdvol.cli import _build_parser, main
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

    def test_fast_reversion_over_a_long_window(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({**FIG1, "beta1": 40.0, "alpha": 0.0}))
        assert run(["k-table", "--params", params, "--T", 22, "--t-min", 10,
                    "--t-max", 10, "--n", 1]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",limit")


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


# Each malformed file's flags, and what the file holds.
MALFORMED_INPUTS = {
    "quotes_object": (["calibrate", "--quotes"], {"a": 1}),
    "quotes_numbers": (["calibrate", "--quotes"], [1, 2]),
    "quote_null_vol": (["calibrate", "--quotes"],
                       [{"t_e": 1, "T": 1, "K": 1, "vol": None}]),
    "fixings_numbers": (["mc-price", "--payoff", "asian_prompt", "--fixings"], [1]),
    "params_number": (["price", "--t-e", 1, "--strike", 1, "--params"], 5),
    "params_invalid": (["price", "--t-e", 1, "--strike", 1, "--params"], {**FIG1, "sigma": -1}),
    "curves_number": (["price", "--t-e", 1, "--strike", 1, "--curves"], {"forwards": 3}),
}


@pytest.mark.parametrize("argv, content", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_file_is_input_error(argv, content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert run(argv + [bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {bad}: ")


@pytest.mark.parametrize("argv", [
    ["calibrate", "--quotes", "q.json", "--params", "p.json"],
    ["k-table", "--curves", "nonexistent.json"],
])
def test_file_flags_a_command_would_not_read_are_rejected(argv, capsys):
    # calibrate starts from --initial; k-table reads no curves.
    assert run(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


# Small runs of every subcommand, and the file each reads after its
# parameters and curves.
MANIFEST_RUNS = {
    "price": (["--t-e", 1, "--strike", 1], []),
    "term-structure": (["--expiries", "0.5,1"], []),
    "smile": (["--strikes", "0.9,1.1"], []),
    "mc-price": (["--payoff", "asian_prompt", "--fixings", "fixings.json",
                  "--paths", 2000, "--steps", 8], ["fixings.json"]),
    "drift-study": (["--alphas", "0,1", "--paths", 2000, "--steps", 8], []),
    "k-table": (["--n", 3], []),
    "calibrate": (["--quotes", "quotes.json", "--budget", 4], ["quotes.json"]),
}


@pytest.mark.parametrize("command", MANIFEST_RUNS)
def test_manifest_of_every_subcommand(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.json").write_text(json.dumps(FIG1))
    (tmp_path / "curves.json").write_text(json.dumps(
        {"forwards": [[0.0, 1.0], [5.0, 1.1]], "discounts": [[0.0, 1.0], [5.0, 0.9]]}))
    (tmp_path / "fixings.json").write_text(json.dumps([[0.25, 0.5], [0.5, 1.0]]))
    (tmp_path / "quotes.json").write_text(json.dumps(
        [{"t_e": 1.0, "T": 1.0, "K": K, "vol": 0.4} for K in (0.9, 1.0, 1.1)]))
    flags, extra_files = MANIFEST_RUNS[command]
    source = "--initial" if command == "calibrate" else "--params"
    # k-table reads no curves, and rejects the flag.
    curves_flag = [] if command == "k-table" else ["--curves", "curves.json"]
    argv = [str(a) for a in [command, *flags, source, "params.json", *curves_flag,
                             "--out", "out"]]
    assert main(argv) == 0
    out, manifest_file = tmp_path / "out", tmp_path / "out.manifest.json"
    first = out.read_bytes(), manifest_file.read_bytes()
    manifest = json.loads(first[1])
    assert manifest["command"] == command
    assert manifest["inputs"] == ["params.json", *curves_flag[1:], *extra_files]
    assert manifest["outputs"] == {"out": hashlib.sha256(first[0]).hexdigest()}
    # The flags exactly as parsed, nothing the dispatch adds.
    assert manifest["config"] == vars(_build_parser().parse_args(argv))
    assert main(argv) == 0
    assert (out.read_bytes(), manifest_file.read_bytes()) == first


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

    def test_package_exports_each_module_list_once(self):
        import fwdvol

        modules = [fwdvol.calibration, fwdvol.charfn, fwdvol.driftfactor, fwdvol.errors,
                   fwdvol.mc, fwdvol.model, fwdvol.presets, fwdvol.pricing]
        names = [name for module in modules for name in module.__all__]
        assert len(set(names)) == len(names)
        assert sorted(fwdvol.__all__) == sorted(["__version__", *names])
        for module in modules:
            for name in module.__all__:
                assert getattr(fwdvol, name) is getattr(module, name)

"""Command-line harness: exit codes, CSV schemas, manifests, and
reproducibility of emitted files."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        # The 1y slice stops after the first block (theta <= 60, 120 nodes)
        # with 33 steps; the 0.1y slice needs a second block (72 nodes more),
        # each at the 20-step floor.  The flags default to the pricer's own
        # `QuadratureConfig`.
        q = QuadratureConfig()
        assert run(["price", "--t-e", 1, "--strike", 1]) == 0
        assert (f"quadrature: theta_stop=60 theta_max={q.theta_max:g} "
                f"nodes_per_panel={q.n_nodes} nodes=120 ode_steps=33" in capsys.readouterr().out)
        assert run(["price", "--t-e", 0.1, "--strike", 1, "--option", "put"]) == 0
        assert (f"quadrature: theta_stop=120 theta_max={q.theta_max:g} "
                f"nodes_per_panel={q.n_nodes} nodes=192 ode_steps=20+20" in capsys.readouterr().out)
        (result,) = price_slices([(0.1, 0.1, [1.0])], curves, make())
        assert (result.theta_stop, result.steps, result.nodes) == (120.0, (20, 20), 192)

    @pytest.mark.parametrize("theta_max", [60, 60.01])
    def test_cap_just_past_a_panel_edge_fails_as_the_edge_does(self, capsys, theta_max):
        # The 0.1y slice's tail test fails over [50, 60]; at 60.01 it used
        # to pass over a [60, 60.01] sliver instead.
        assert run(["price", "--t-e", 0.1, "--strike", 1, "--theta-max", theta_max]) == 3
        assert "last quadrature panel contributes up to 1.274e-09" in capsys.readouterr().err

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

    def test_shorter_output_over_a_longer_file_leaves_only_its_bytes(self, tmp_path):
        # Outputs are written over an existing file in place and then cut
        # to their own length.
        out = tmp_path / "price.json"
        manifest = tmp_path / "price.json.manifest.json"
        out.write_bytes(b"x" * 10_000)
        manifest.write_bytes(b"y" * 10_000)
        assert run(["price", "--t-e", 1, "--strike", 1.1, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert {"price", "implied_vol"} <= payload.keys()
        recorded = json.loads(manifest.read_text())["outputs"][str(out)]
        assert recorded == hashlib.sha256(out.read_bytes()).hexdigest()


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

    def test_nan_fixing_exits_2_naming_it(self, capsys, tmp_path):
        schedule = tmp_path / "fixings.json"
        schedule.write_text(json.dumps([[0.25, 0.5], [math.nan, 1.0]]))
        assert run(["mc-price", "--payoff", "asian_prompt", "--strike", 0.9,
                    "--fixings", schedule, "--paths", 4000, "--steps", 20]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {schedule}: ")
        assert "fixing (nan, 1.0) has a date that is not finite" in err


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

    def test_zero_payoff_sample_exits_3(self, capsys):
        # At t_e = 0.01 every path's 1.4 F payoff is 0: no vol to back out.
        assert run(["drift-study", "--t-e", 0.01, "--T", 2, "--paths", 2000]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: alpha=0: ")
        assert "K=1.4 averages 0 over 2000 paths" in err


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
        # Three quotes: three singular values, largest first.
        assert payload["failures"] == {}
        values = payload["singular_values"]
        assert len(values) == 3 and values == sorted(values, reverse=True)

    def test_budget_short_of_one_jacobian_reports_no_singular_values(self, tmp_path):
        qfile = tmp_path / "quotes.json"
        qfile.write_text(json.dumps([{"t_e": 1.0, "T": 1.0, "K": 1.0, "vol": 0.3}]))
        out = tmp_path / "fitted.json"
        assert run(["calibrate", "--quotes", qfile, "--budget", 4, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert (payload["n_evals"], payload["singular_values"]) == (4, None)

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


# Each input file's flag, after the arguments its command needs; --initial
# is read before --quotes, so that file is never opened.
FILE_FLAGS = {
    "params": ["price", "--t-e", 1, "--strike", 1, "--params"],
    "curves": ["price", "--t-e", 1, "--strike", 1, "--curves"],
    "quotes": ["calibrate", "--quotes"],
    "fixings": ["mc-price", "--payoff", "asian_prompt", "--fixings"],
    "initial": ["calibrate", "--quotes", "unread.json", "--initial"],
}


@pytest.mark.parametrize("content", [b'{"sigma": 0.4, ', b'{"sigma": "\xff"}'],
                         ids=["truncated", "not_utf8"])
@pytest.mark.parametrize("argv", FILE_FLAGS.values(), ids=FILE_FLAGS.keys())
def test_unparsable_input_file_is_input_error_naming_it(argv, content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run(argv + [bad]) == 2
    assert capsys.readouterr().err.startswith(f"invalid input: {bad}: ")


# Curve files whose NaN or infinite node passes every ordering and sign
# check; each used to price as nan and exit 0.
NON_FINITE_CURVES = {
    "nan_forward": {"forwards": [[0.0, math.nan]], "discounts": [[0.0, 1.0]]},
    "inf_forward": {"forwards": [[0.0, math.inf]], "discounts": [[0.0, 1.0]]},
    "nan_time": {"forwards": [[math.nan, 1.0]], "discounts": [[0.0, 1.0]]},
}


@pytest.mark.parametrize("curves", NON_FINITE_CURVES.values(), ids=NON_FINITE_CURVES.keys())
@pytest.mark.parametrize("argv", [["price", "--t-e", 1, "--strike", 1],
                                  ["mc-price", "--paths", 2000, "--steps", 8]])
def test_non_finite_curves_are_input_error(argv, curves, tmp_path, capsys):
    bad = tmp_path / "curves.json"
    bad.write_text(json.dumps(curves))
    assert run(argv + ["--curves", bad]) == 2
    assert capsys.readouterr().err.startswith(f"invalid input: {bad}: ")


@pytest.mark.parametrize("argv", [
    ["price", "--t-e", 1, "--strike", "nan"],
    ["price", "--t-e", 1, "--strike", "inf"],
    ["price", "--t-e", "inf", "--strike", 1],
    ["price", "--t-e", 1, "--strike", 1, "--theta-max", "nan"],
    ["smile", "--strikes", "1,nan"],
])
def test_non_finite_numbers_are_input_error(argv, capsys):
    # An infinite --theta-max is left to the QuadratureConfig unit test:
    # without its check the grid build never ends.
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


@pytest.mark.parametrize("argv", [
    ["calibrate", "--quotes", "q.json", "--params", "p.json"],
    ["k-table", "--curves", "nonexistent.json"],
    ["price", "--t-e", 1, "--strike", 1, "--seed", 3],
    ["smile", "--threads", 2],
    ["k-table", "--seed", 1],
    ["calibrate", "--quotes", "q.json", "--threads", 2],
])
def test_file_flags_a_command_would_not_read_are_rejected(argv, capsys):
    # calibrate starts from --initial; k-table reads no curves; only
    # mc-price and drift-study simulate, so only they take --seed and
    # --threads.
    assert run(argv) == 2
    assert f"unrecognized arguments: {' '.join(map(str, argv[-2:]))}" in capsys.readouterr().err


# Small runs of every subcommand, and the file each reads after its
# parameters and curves.
MANIFEST_RUNS = {
    "price": (["--t-e", 1, "--strike", 1], []),
    "term-structure": (["--expiries", "0.5,1"], []),
    "smile": (["--strikes", "0.9,1.1"], []),
    "mc-price": (["--payoff", "asian_prompt", "--fixings", "fixings.json",
                  "--paths", 2000, "--steps", 8, "--seed", 7], ["fixings.json"]),
    "drift-study": (["--alphas", "0,1", "--paths", 2000, "--steps", 8, "--seed", 7], []),
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
    # The flags exactly as parsed, nothing the dispatch adds; a command
    # that does not simulate has no seed.
    assert manifest["config"] == vars(_build_parser().parse_args(argv))
    assert manifest["seed"] == (7 if command in ("mc-price", "drift-study") else None)
    assert main(argv) == 0
    assert (out.read_bytes(), manifest_file.read_bytes()) == first


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch):
    # The parser is built once per process.  Subcommands run through it
    # one after another each record their own flags, with no default or
    # value left over from the call before.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quotes.json").write_text(json.dumps(
        [{"t_e": 1.0, "T": 1.0, "K": K, "vol": 0.4} for K in (0.9, 1.0, 1.1)]))
    runs = [
        ["mc-price", "--t-e", "1", "--strike", "1", "--paths", "2000", "--steps", "8",
         "--seed", "3", "--out", "mc.json"],
        ["price", "--t-e", "2", "--T", "3", "--strike", "1.1", "--panel-nodes", "32",
         "--out", "price.json"],
        ["calibrate", "--quotes", "quotes.json", "--budget", "4", "--out", "fit.json"],
        ["price", "--t-e", "1", "--strike", "1", "--out", "price-default.json"],
    ]
    assert _build_parser() is _build_parser()
    for argv in runs:
        assert main(argv) == 0
        manifest = json.loads((tmp_path / (argv[-1] + ".manifest.json")).read_text())
        assert manifest["config"] == vars(_build_parser.__wrapped__().parse_args(argv))


class TestEntryPoints:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fwdvol", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "drift-study" in proc.stdout

    def test_import_leaves_the_thread_pool_out(self):
        # Only a multi-threaded simulation loads concurrent.futures.
        code = "import sys, fwdvol; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == "False"

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

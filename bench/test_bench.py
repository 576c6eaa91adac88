"""Cross-checks of the benchmark's tracer and inputs.

The counts asserted here are fixed by the code under test, so a traced
run that disagrees means the tracer is wrong.  Run from the repository
root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import ACCEPTANCE_FACTORS, Calibrate, DriftStudy, Strip, mc_seed  # noqa: E402

fwdvol = run.load_fwdvol()

BLOCK = 8192  # paths per RNG block in fwdvol.mc


def bindings():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "fwdvol" or name.startswith("fwdvol.")
        for key, value in vars(module).items()
    }


def traced_unit(workload, workdir, threads=None):
    workload.prepare(0, workdir)
    runner = run.Runner(workload)
    with Tracer() as tracer:
        unit = runner.unit(threads)
    assert unit.failures == []
    return unit, layer_metrics(tracer.spans, runner.cache_hits, runner.cache_misses)


def test_calibrate_counts(tmp_path):
    unit, m = traced_unit(Calibrate(budget=2), tmp_path)
    evals = json.loads(unit.outputs["fit"].read_text())["n_evals"]
    assert evals == 2
    # ab_steps per expiry: 100 + 200 + 400; four RK4 stages per step.
    assert m["charfn.rk4_steps_per_eval"] == 700
    assert m["model.variance_rate_calls_per_eval"] == 2800
    # 20 panels of 64 Gauss-Legendre nodes.
    assert m["charfn.theta_nodes"] == 1280
    assert m["charfn.integrate_ab_calls"] == 3 * evals
    assert m["pricing.implied_vol_calls"] == 12 * evals
    assert m["calibration.penalty_slices"] == 0
    assert m["mc.evolve_step_calls"] == 0
    assert m["driftfactor.k_sq_ms"] == 0


def test_drift_study_counts(tmp_path):
    study = DriftStudy(paths=20_000, steps=10, alphas=(0.0, 1.0))
    _, m = traced_unit(study, tmp_path)
    blocks = math.ceil(study.paths / BLOCK)
    assert m["mc.evolve_step_calls"] == blocks * study.steps * len(study.alphas)
    assert m["mc.ns_per_path_step"] > 0
    assert (m["driftfactor.route_limit"], m["driftfactor.route_numeric"]) == (1, 1)
    assert m["charfn.integrate_ab_calls"] == 0
    assert m["mc.snapshot_mb"] == 1 * (4 + 1) * study.paths * 8 / 1e6


def test_strip_counts_and_thread_independence(tmp_path):
    strip = Strip(paths=20_000, steps=12)
    prices = {}
    for threads in (1, 2):
        unit, m = traced_unit(strip, tmp_path, threads)
        blocks = math.ceil(strip.paths / BLOCK)
        assert m["mc.evolve_step_calls"] == blocks * strip.steps * 2
        assert m["driftfactor.route_closed_form"] == 12
        assert m["mc.snapshot_mb"] == 12 * (4 + 12) * strip.paths * 8 / 1e6
        prices[threads] = {
            label: json.loads(path.read_text()) for label, path in unit.outputs.items()
        }
    # Criterion 10: worker-count independence, bit for bit, under tracing.
    for label in prices[1]:
        assert prices[1][label]["value"] == prices[2][label]["value"]
        assert prices[1][label]["std_error"] == prices[2][label]["std_error"]


def test_tracer_restores_every_binding():
    before = bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert fwdvol.cli.main is not before[("fwdvol.cli", "main")]
            assert fwdvol.pricing.integrate_ab is not before[("fwdvol.pricing", "integrate_ab")]
            1 / 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_seed_zero_is_the_acceptance_configuration(tmp_path):
    fig1 = fwdvol.TERM_STRUCTURE_SET
    calibrate = Calibrate()
    calibrate.prepare(0, tmp_path)
    start = json.loads(calibrate.initial.read_text())
    want = replace(fig1, **{k: getattr(fig1, k) * f for k, f in ACCEPTANCE_FACTORS.items()})
    assert start == want.to_dict()
    assert mc_seed(0) == 0

    calibrate.prepare(7, tmp_path)
    other = json.loads(calibrate.initial.read_text())
    for key in ACCEPTANCE_FACTORS:
        assert 0.8 <= other[key] / getattr(fig1, key) <= 1.2
    assert other != start
    assert mc_seed(7) == mc_seed(7) != 0


def test_every_workload_has_a_speed_kernel():
    import speed

    for workload in (Calibrate, DriftStudy, Strip):
        assert workload.speed_kernel in speed.KERNELS
        assert speed.probe(workload.speed_kernel) > 0

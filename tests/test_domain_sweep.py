"""Sweep of the parameter domain through the public pricing, k^2 and
Monte Carlo entry points, and through the CLI's exit codes.

The contract is "fail loudly with a typed error, or work": on any
parameter set, expiry, settlement and strikes, only a `FwdVolError` may
escape, nothing may emit a `RuntimeWarning`, and the CLI exits 0, 2 or 3.
The domain reaches past every preset: near-zero and large vols,
reversions and vol of vol, any correlation triple, negative vols and
rates (so some sets fail validation), expiries from 1e-4 to 5 years,
where the shortest fail the quadrature's tail test, and settlements up
to 3 years later.
"""

import contextlib
import io
import json
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fwdvol import (
    FwdVolError,
    InvalidModelParams,
    McConfig,
    ModelParams,
    PayoffSpec,
    call_prices,
    drift_factor,
    flat_curves,
    implied_vol,
    price_payoff,
    validate_params,
)
from fwdvol.cli import main

CURVES = flat_curves()

ranges = st.builds(
    ModelParams,
    sigma=st.floats(0.01, 2.0),
    beta1=st.floats(0.0, 5.0),
    beta2=st.floats(0.0, 5.0),
    R=st.floats(-2.0, 2.0),
    rho=st.floats(-1.0, 1.0),
    beta=st.floats(0.0, 5.0),
    alpha=st.floats(0.0, 4.0),
    rho1=st.floats(-1.0, 1.0),
    rho2=st.floats(-1.0, 1.0),
)


@st.composite
def params(draw):
    """A set from ``ranges``, or, about half the time, one with a vol or
    a rate below zero."""
    p = draw(ranges)
    name = draw(st.none() | st.sampled_from(["sigma", "beta1", "beta2", "beta", "alpha"]))
    return p if name is None else replace(p, **{name: draw(st.floats(-10.0, -1e-3))})


def typed_or_works(call, *args):
    """``call(*args)``, or None if it raised a `FwdVolError`."""
    try:
        return call(*args)
    except FwdVolError:
        return None


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    p=params(),
    t_e=st.floats(1e-4, 5.0),
    lag=st.floats(0.0, 3.0),
    strikes=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=3),
    command=st.sampled_from(["price", "smile", "mc-price", "k-table"]),
)
def test_every_entry_point_fails_typed_or_works(p, t_e, lag, strikes, command, tmp_path):
    T = t_e + lag
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        priced = typed_or_works(call_prices, [(t_e, T, strikes)], CURVES, p)
        if priced is not None and not isinstance(priced[0], FwdVolError):
            F, D = CURVES.forward(T), CURVES.discount(T)
            for K, price in zip(strikes, priced[0]):
                typed_or_works(implied_vol, float(price), F, K, t_e, D)
        typed_or_works(drift_factor, t_e, T, p)
        if typed_or_works(validate_params, p) is None:
            with pytest.raises(InvalidModelParams):
                drift_factor(t_e, T, p)
        kind = "vanilla" if lag == 0.0 else "early_exercise"
        payoff = PayoffSpec(kind, strikes[0], "call", t_e, T)
        for mode in ("exact_per_T", "approximate"):
            cfg = McConfig(n_paths=2000, n_steps=10, horizon=t_e, seed=1, drift_mode=mode,
                           exact_settlements=(T,))
            typed_or_works(price_payoff, payoff, cfg, CURVES, p)

        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(p.to_dict()))
        argv = {
            "price": ["--t-e", t_e, "--T", T, "--strike", strikes[0]],
            "smile": ["--t-e", t_e, "--T", T, "--strikes", ",".join(map(repr, strikes))],
            "mc-price": ["--payoff", kind, "--t-e", t_e, "--T", T, "--strike", strikes[0],
                         "--paths", 2000, "--steps", 10],
            "k-table": ["--T", T, "--t-min", 0.0, "--t-max", t_e, "--n", 3],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--params", str(params_file), *map(str, argv)])
    assert code in (0, 2, 3)

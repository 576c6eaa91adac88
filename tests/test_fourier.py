"""Black-76 utilities, the Fourier call integral, parity, implied vols,
term structures, and smiles."""

import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwdvol import (
    DomainError,
    NoArbitrageViolation,
    OptionSpec,
    QuadratureConfig,
    QuadratureTailError,
    atm_term_structure,
    black76_price,
    black76_vega,
    call_price,
    call_prices,
    flat_curves,
    implied_vol,
    integrated_variance,
    put_price,
    smile_slice,
    smile_table,
    variance_rate,
)
from fwdvol.charfn import integrate_ab
from fwdvol.pricing import _theta_grid

from test_charfn import LATE_DIVERGENCE
from test_model_core import make


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def reference_call_prices(t_e, T, strikes, curves, p, n_steps=None):
    """The fixed-grid pricer that `call_prices` replaced: the oracle.

    Every node of the default 1280-node grid out to theta = 200, one RK4
    pass of max(50, ceil(200 t_e)) steps, and the signed tail test on the
    last panel.
    """
    q = QuadratureConfig()
    thetas, weights, _ = _theta_grid(q)
    if n_steps is None:
        n_steps = max(50, math.ceil(200 * t_e))
    a_val, b_val = integrate_ab(thetas, t_e, T, p, n_steps=n_steps)
    strikes = np.asarray(strikes, dtype=float)
    F, D = curves.forward(T), curves.discount(T)
    kernel = np.exp(a_val + b_val) / (thetas**2 + 1j * thetas)
    integrand = np.real(kernel[:, None] * np.exp(-1j * np.outer(thetas, np.log(strikes / F))))
    tail = np.abs(weights[-q.n_nodes:] @ integrand[-q.n_nodes:])
    if np.max(tail) > q.tail_tolerance:
        raise QuadratureTailError(f"reference tail {np.max(tail):.3e}")
    prices = D * (F - 0.5 * strikes - (strikes / math.pi) * (weights @ integrand))
    return np.clip(prices, D * np.maximum(F - strikes, 0.0), D * F)


class TestSpecs:
    def test_option_spec_rejects_bad_times(self):
        with pytest.raises(DomainError):
            OptionSpec(t_e=2.0, T=1.0, strike=1.0, kind="call")
        with pytest.raises(DomainError):
            OptionSpec(t_e=0.0, T=1.0, strike=1.0, kind="call")

    def test_option_spec_rejects_bad_strike(self):
        with pytest.raises(DomainError):
            OptionSpec(t_e=1.0, T=1.0, strike=0.0, kind="call")

    def test_option_spec_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            OptionSpec(t_e=1.0, T=1.0, strike=1.0, kind="straddle")

    def test_quadrature_config_bounds(self):
        with pytest.raises(DomainError):
            QuadratureConfig(theta_max=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(n_nodes=8)


class TestBlack76:
    def test_zero_variance_is_intrinsic(self):
        assert black76_price(1.2, 1.0, 0.0, 0.97, "call") == pytest.approx(0.97 * 0.2)
        assert black76_price(0.8, 1.0, 0.0, 0.97, "put") == pytest.approx(0.97 * 0.2)

    def test_atm_closed_value(self):
        # At the forward the price reduces to 2 F (Phi(s/2) - 1/2).
        expected = 2.0 * (norm_cdf(0.1) - 0.5)
        assert black76_price(1.0, 1.0, 0.04, 1.0, "call") == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        F=st.floats(0.5, 2.0),
        K=st.floats(0.5, 2.0),
        tv=st.floats(0.0, 1.0),
        D=st.floats(0.5, 1.0),
    )
    def test_parity(self, F, K, tv, D):
        call = black76_price(F, K, tv, D, "call")
        put = black76_price(F, K, tv, D, "put")
        assert call - put == pytest.approx(D * (F - K), abs=1e-12)

    def test_matches_scipy_normal_oracle(self):
        from scipy.stats import norm

        rng = np.random.default_rng(5)
        for K, t_e, vol in zip(
            rng.uniform(0.3, 3.0, 200), rng.uniform(0.01, 10.0, 200), rng.uniform(0.01, 2.0, 200)
        ):
            s = vol * math.sqrt(t_e)
            d1 = math.log(1.0 / K) / s + 0.5 * s
            call = norm.cdf(d1) - K * norm.cdf(d1 - s)
            put = K * norm.cdf(s - d1) - norm.cdf(-d1)
            assert abs(black76_price(1.0, K, s * s, 1.0, "call") - call) <= 1e-15
            assert abs(black76_price(1.0, K, s * s, 1.0, "put") - put) <= 1e-15
            vega = math.sqrt(t_e) * norm.pdf(d1)
            assert abs(black76_vega(1.0, K, t_e, vol, 1.0) - vega) <= 1e-15

    def test_import_leaves_scipy_stats_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, fwdvol; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_cli_runs_with_scipy_blocked(self, tmp_path):
        # scipy is a test-only dependency: with every `import scipy*`
        # raising, as on an install without it, each command still runs.
        quotes = tmp_path / "quotes.json"
        quotes.write_text(json.dumps(
            [{"t_e": 1.0, "T": 1.0, "K": K, "vol": 0.3} for K in (0.9, 1.0, 1.1)]
        ))
        commands = [
            ["calibrate", "--quotes", str(quotes), "--budget", "4"],
            ["price", "--t-e", "1", "--T", "2", "--strike", "1.1"],
            ["mc-price", "--t-e", "1", "--strike", "1", "--paths", "2000", "--steps", "10"],
            ["drift-study", "--alphas", "0,1", "--paths", "2000", "--steps", "10",
             "--out", str(tmp_path / "study.csv")],
        ]
        code = textwrap.dedent("""
            import json, sys

            class BlockScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} is blocked")

            sys.meta_path.insert(0, BlockScipy())
            from fwdvol.cli import main

            codes = [main(argv) for argv in json.loads(sys.argv[1])]
            loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
            try:
                import scipy
                blocked = False
            except ImportError:
                blocked = True
            print(json.dumps({"codes": codes, "scipy": loaded, "blocked": blocked}))
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0, 0, 0], "scipy": [], "blocked": True}


class TestImpliedVol:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        vol=st.floats(0.05, 2.0),
        moneyness=st.floats(0.5, 2.0),
        t_e=st.floats(0.1, 5.0),
        kind=st.sampled_from(["call", "put"]),
    )
    def test_round_trip(self, vol, moneyness, t_e, kind):
        price = black76_price(1.0, moneyness, vol**2 * t_e, 0.95, kind)
        intrinsic = black76_price(1.0, moneyness, 0.0, 0.95, kind)
        # So deep in the money that the time value drowns in rounding,
        # the vol is not recoverable from the price by any solver.
        assume(price - intrinsic > 1e-9)
        assert implied_vol(price, 1.0, moneyness, t_e, 0.95, kind) == pytest.approx(vol, abs=1e-8)

    def test_intrinsic_price_maps_to_zero_vol(self):
        assert implied_vol(0.3 * 0.95, 1.3, 1.0, 1.0, 0.95) == 0.0
        assert implied_vol(0.0, 1.0, 1.4, 1.0, 1.0) == 0.0

    def test_price_above_forward_rejected(self):
        with pytest.raises(NoArbitrageViolation):
            implied_vol(1.01, 1.0, 1.0, 1.0, 1.0)

    def test_price_below_intrinsic_rejected(self):
        with pytest.raises(NoArbitrageViolation):
            implied_vol(0.1, 1.3, 1.0, 1.0, 1.0)


class TestCallPrice:
    def test_near_zero_strike_is_discounted_forward(self, curves, quad):
        spec = OptionSpec(t_e=1.0, T=1.0, strike=1e-8, kind="call")
        price = call_price(spec, curves, make(), quad)
        assert price == pytest.approx(1.0, rel=1e-6)

    def test_lognormal_limit_matches_black76(self, curves, quad):
        p = make(alpha=0.0)
        spec = OptionSpec(t_e=1.0, T=1.0, strike=1.0, kind="call")
        expected = black76_price(1.0, 1.0, integrated_variance(0.0, 1.0, 1.0, p), 1.0, "call")
        assert call_price(spec, curves, p, quad) == pytest.approx(expected, rel=1e-6)

    def test_doubling_nodes_is_stable(self, curves, quad):
        spec = OptionSpec(t_e=1.0, T=1.0, strike=1.1, kind="call")
        coarse = call_price(spec, curves, make(), quad)
        fine = call_price(spec, curves, make(), QuadratureConfig(n_nodes=128))
        assert abs(fine - coarse) <= 1e-7

    def test_decreasing_and_convex_in_strike(self, curves, quad):
        p = make()
        strikes = [0.6 + 0.1 * i for i in range(15)]
        prices = [
            call_price(OptionSpec(1.0, 1.0, K, "call"), curves, p, quad)
            for K in strikes
        ]
        for lo, hi in zip(prices, prices[1:]):
            assert hi <= lo + 1e-8
        for a, b, c in zip(prices, prices[1:], prices[2:]):
            assert a - 2.0 * b + c >= -1e-8

    def test_more_expiry_is_worth_more(self, curves, quad):
        p = make()
        early = call_price(OptionSpec(0.5, 2.0, 1.0, "call"), curves, p, quad)
        late = call_price(OptionSpec(1.0, 2.0, 1.0, "call"), curves, p, quad)
        assert early <= late + 1e-8


class TestCallPrices:
    SLICES = [
        (0.5, 0.5, [0.8, 1.0, 1.4]),
        (2.0, 2.0, [0.9, 1.0, 1.3]),
        (0.3, 1.7, [0.7, 1.0, 1.2]),
        (1.0, 1.0, [1.0]),
        (1.0, 2.0, [0.8, 1.1]),
        (1.3, 2.3, [1.05]),
    ]

    def test_together_equals_one_by_one(self, curves, fig1, quad):
        together = call_prices(self.SLICES, curves, fig1, quad)
        for slice_, prices in zip(self.SLICES, together):
            (alone,) = call_prices([slice_], curves, fig1, quad)
            assert np.max(np.abs(prices - alone)) <= 1e-14

    def test_failures_stay_per_slice(self, curves, fig1):
        # Capped at theta = 60, the 0.1y slice's slowly decaying tail fails
        # the tail test; the others stop after that first block anyway.
        capped = QuadratureConfig(theta_max=60.0)
        slices = [(0.1, 0.1, [1.0]), (0.5, 0.5, [1.0]), (1.0, 1.0, [1.0]),
                  (2.0, 2.0, [1.0]), (0.3, 1.7, [1.0])]
        short, *rest = call_prices(slices, curves, fig1, capped)
        assert isinstance(short, QuadratureTailError)
        with pytest.raises(QuadratureTailError):
            smile_table([1.0], 0.1, 0.1, curves, fig1, capped)
        for (t_e, T, _), prices in zip(slices[1:], rest):
            assert prices[0] == pytest.approx(
                smile_table([1.0], t_e, T, curves, fig1, capped)[0][3], abs=1e-15
            )
            (uncapped,) = call_prices([(t_e, T, [1.0])], curves, fig1)
            assert prices[0] == uncapped[0]

    def test_late_divergence_prices(self, curves, fig1):
        # A 400-step pass on all 1280 nodes diverges at tau = 1.895 (see
        # test_charfn); steps sized from each block's top theta do not.
        p = replace(fig1, **LATE_DIVERGENCE)
        strikes = [0.8, 1.0, 1.25]
        (prices,) = call_prices([(2.0, 2.0, strikes)], curves, p)
        reference = reference_call_prices(2.0, 2.0, strikes, curves, p, n_steps=1600)
        assert np.max(np.abs(prices - reference)) <= 1e-9

    def test_rejects_bad_slices(self, curves, fig1):
        with pytest.raises(DomainError):
            call_prices([(1.0, 1.0, [1.0]), (2.0, 1.0, [1.0])], curves, fig1)
        with pytest.raises(DomainError):
            call_prices([(1.0, 1.0, [1.0, 0.0])], curves, fig1)

    def test_theta_grid_is_built_once_and_read_only(self):
        nodes, weights, _ = _theta_grid(QuadratureConfig())
        assert _theta_grid(QuadratureConfig())[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 1.0
        with pytest.raises(ValueError):
            weights[0] = 1.0


class TestAgainstFixedGrid:
    PAIRS = [(0.1, 0.1), (0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (1.0, 2.0),
             (2.0, 2.0), (5.0, 5.0), (10.0, 10.0)]
    STRIKES = [0.5, 0.8, 1.0, 1.25, 2.0]

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("alpha", [0.0, "preset", 2.0])
    def test_sweep_matches_reference(self, request, curves, preset, alpha):
        # An absolute yardstick: at t_e = 0.1, K = 2F the price is 2e-10, and
        # 64- and 128-node panels differ there by 1e-14 but 7e-6 relative.
        p = request.getfixturevalue(preset)
        if alpha != "preset":
            p = replace(p, alpha=alpha)
        slices = [(t_e, T, [m * curves.forward(T) for m in self.STRIKES]) for t_e, T in self.PAIRS]
        for (t_e, T, strikes), prices in zip(slices, call_prices(slices, curves, p)):
            assert not isinstance(prices, Exception), (t_e, T, prices)
            reference = reference_call_prices(t_e, T, strikes, curves, p)
            bound = 1e-9 * curves.discount(T) * curves.forward(T)
            assert np.max(np.abs(prices - reference)) <= bound, (t_e, T)

    def test_tail_test_sees_through_cancellation(self, curves, fig1):
        # At this strike the signed integral over the panel [50, 60]
        # cancels to below the tolerance, although the tail beyond 60 is
        # worth 2.2e-8; the bound on |integrand| sends the slice on.
        p = replace(fig1, alpha=2.0)
        (prices,) = call_prices([(0.05, 0.05, [1.7955])], curves, p)
        reference = reference_call_prices(0.05, 0.05, [1.7955], curves, p)
        assert abs(prices[0] - reference[0]) <= 1e-9

    def test_fast_reversion_matches_reference(self, curves, fig1):
        # Simpson's error on the variance rate grows as (2 beta2 h)^4; at
        # 60 steps a year this slice set reads 1.4e-9.
        p = replace(fig1, beta2=10.0)
        slices = [(t_e, t_e, self.STRIKES) for t_e in (0.25, 1.0, 2.0)]
        for (t_e, T, strikes), prices in zip(slices, call_prices(slices, curves, p)):
            reference = reference_call_prices(t_e, T, strikes, curves, p)
            assert np.max(np.abs(prices - reference)) <= 1e-9, t_e


class TestPutPrice:
    def test_near_zero_strike_put_is_worthless(self, curves, quad):
        spec = OptionSpec(t_e=1.0, T=1.0, strike=1e-8, kind="put")
        assert put_price(spec, curves, make(), quad) == pytest.approx(0.0, abs=1e-8)

    def test_atm_put_equals_call(self, curves, quad):
        p = make()
        call = call_price(OptionSpec(1.0, 1.0, 1.0, "call"), curves, p, quad)
        put = put_price(OptionSpec(1.0, 1.0, 1.0, "put"), curves, p, quad)
        assert put == pytest.approx(call, abs=1e-10)

    def test_deep_itm_put_is_discounted_intrinsic(self, curves, quad):
        # In the lognormal limit the K=10F call truly vanishes; with vol
        # of vol the fat upper tail keeps it near 1e-5, so parity is the
        # only exact statement there.
        spec = OptionSpec(t_e=1.0, T=1.0, strike=10.0, kind="put")
        assert put_price(spec, curves, make(alpha=0.0), quad) == pytest.approx(9.0, rel=1e-6)

    def test_parity_across_strikes(self, curves, quad):
        p = make()
        for K in (0.5, 0.8, 1.0, 1.25, 2.0):
            call = call_price(OptionSpec(1.0, 2.0, K, "call"), curves, p, quad)
            put = put_price(OptionSpec(1.0, 2.0, K, "put"), curves, p, quad)
            assert call - put == pytest.approx(1.0 - K, abs=1e-10)


class TestTermStructure:
    def test_lognormal_limit_vols(self, curves, quad):
        p = make(alpha=0.0)
        for t_e, vol in atm_term_structure([0.5, 1.0, 2.0], curves, p, quad):
            expected = math.sqrt(integrated_variance(0.0, t_e, t_e, p) / t_e)
            assert vol == pytest.approx(expected, abs=1e-6)

    def test_vol_decays_with_expiry(self, curves, quad):
        vols = [v for _, v in atm_term_structure([0.25, 0.5, 1.0, 2.0, 3.0, 5.0], curves, make(), quad)]
        assert all(b < a for a, b in zip(vols, vols[1:]))

    def test_short_expiry_limit_is_spot_vol(self, curves, quad):
        (_, vol), = atm_term_structure([0.01], curves, make(), quad)
        assert vol == pytest.approx(math.sqrt(0.152), abs=0.005)


class TestSmile:
    def test_flat_without_vol_of_vol(self, curves, quad):
        p = make(alpha=0.0)
        vols = [v for _, v in smile_slice([0.5, 0.8, 1.0, 1.5, 2.0], 1.0, 1.0, curves, p, quad)]
        assert max(vols) - min(vols) <= 1e-6

    def test_vol_of_vol_bends_the_smile(self, curves, quad):
        vols = [v for _, v in smile_slice([0.5, 0.8, 1.0, 1.5, 2.0], 1.0, 1.0, curves, make(), quad)]
        assert max(vols) - min(vols) >= 0.005

    def test_even_in_log_moneyness_without_skew(self, curves, quad):
        # With both vol correlations zero, mirrored strikes K and 1/K
        # carry the same implied vol.
        p = make(rho1=0.0, rho2=0.0)
        for k in (1.25, 1.5, 2.0):
            (_, lo), (_, hi) = smile_slice([1.0 / k, k], 1.0, 1.0, curves, p, quad)
            assert lo == pytest.approx(hi, abs=1e-4)

    def test_variance_rate_spot_value(self):
        # Anchors the smile scale: the instantaneous ATM vol at expiry.
        assert math.sqrt(variance_rate(1.0, 1.0, make())) == pytest.approx(0.38987, abs=1e-5)

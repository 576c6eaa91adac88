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
    InvalidModelParams,
    NoArbitrageViolation,
    NonConvergence,
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
    price_slices,
    put_price,
    smile_slice,
    smile_table,
    variance_rate,
)
import fwdvol.pricing
from fwdvol.charfn import default_ab_steps, integrate_ab_snapshots
from fwdvol.pricing import _TAIL_TOLERANCE, _theta_grid

from test_calibration import acceptance_start
from test_charfn import LATE_DIVERGENCE, reference_ab
from test_model_core import make


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def uniform_panels(n_nodes, lo=0.0, hi=200.0):
    """Gauss-Legendre nodes and weights on 10-wide panels over [lo, hi].

    The uniform theta grid that the pricer's graded one replaced, built
    here so that the oracles do not move with `QuadratureConfig`.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.arange(lo, hi + 1e-9, 10.0)
    half = 0.5 * np.diff(edges)[:, None]
    return (half * (x + 1.0) + edges[:-1, None]).ravel(), (half * w).ravel()


def weighted_integrand(thetas, weights, ab, T, strikes, curves):
    """Each node's weighted share of the call integral, per strike, from
    the exponents ``ab`` = (A, B) on ``thetas``, at v(0) = 1."""
    a_val, b_val = ab
    kernel = np.exp(a_val + b_val) / (thetas**2 + 1j * thetas)
    phases = np.exp(-1j * np.outer(thetas, np.log(strikes / curves.forward(T))))
    return weights[:, None] * np.real(kernel[:, None] * phases)


def prices_from(integral, T, strikes, curves):
    F, D = curves.forward(T), curves.discount(T)
    prices = D * (F - 0.5 * strikes - (strikes / math.pi) * integral)
    return np.clip(prices, D * np.maximum(F - strikes, 0.0), D * F)


def reference_call_prices(slices, curves, p, n_steps=None):
    """The fixed-grid pricer that `call_prices` replaced: the oracle.

    Every node of 128-node uniform panels out to theta = 200, classical
    RK4 (`reference_ab`, stage by stage over `ab_ode_rhs`) of
    max(50, ceil(200 t_e)) steps, and the signed tail test on the last
    panel.  Slices that share the lag T - t_e and the step read their
    exponents off one pass, run from the longest of them.  On both
    presets at alpha 0 to 3 that pass prices within 2.3e-10 D F of one
    at 1600 steps a year (sec5 alpha = 3, t_e = 0.25).

    Returns the call prices of each (t_e, T, strikes) slice.
    """
    n_nodes = 128
    thetas, weights = uniform_panels(n_nodes)
    # The slices of one pass, as (index, steps), by lag and step.
    passes = {}
    for index, (t_e, T, _) in enumerate(slices):
        n = n_steps or max(50, math.ceil(200 * t_e))
        passes.setdefault((T - t_e, t_e / n), []).append((index, n))
    out = [None] * len(slices)
    for members in passes.values():
        longest, n_longest = max(members, key=lambda member: member[1])
        t_e, T, _ = slices[longest]
        stops = [n for _, n in members]
        for (index, _), ab in zip(members, reference_ab(thetas, t_e, T, p, n_longest, stops)):
            _, T, strikes = slices[index]
            strikes = np.asarray(strikes, dtype=float)
            terms = weighted_integrand(thetas, weights, ab, T, strikes, curves)
            tail = np.abs(terms[-n_nodes:].sum(axis=0))
            if np.max(tail) > _TAIL_TOLERANCE:
                raise QuadratureTailError(f"reference tail {np.max(tail):.3e}")
            out[index] = prices_from(terms.sum(axis=0), T, strikes, curves)
    return out


class TestSpecs:
    def test_option_spec_rejects_bad_times(self):
        for t_e, T in ((2.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                       (math.inf, math.inf), (1.0, math.inf)):
            with pytest.raises(DomainError):
                OptionSpec(t_e=t_e, T=T, strike=1.0, kind="call")

    def test_option_spec_rejects_bad_strike(self):
        for strike in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                OptionSpec(t_e=1.0, T=1.0, strike=strike, kind="call")

    def test_option_spec_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            OptionSpec(t_e=1.0, T=1.0, strike=1.0, kind="straddle")

    def test_quadrature_config_bounds(self):
        # An infinite cap would build its theta grid until memory ran out.
        for theta_max in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                QuadratureConfig(theta_max=theta_max)
        # 12.5 nodes used to fail in the Gauss-Legendre rule with a numpy
        # TypeError.
        for n_nodes in (8, 12.5):
            with pytest.raises(DomainError, match="n_nodes"):
                QuadratureConfig(n_nodes=n_nodes)
        assert type(QuadratureConfig(n_nodes=np.int64(16)).n_nodes) is int


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

    @pytest.mark.parametrize("F, K, total_variance", [
        (math.nan, 1.0, 0.04), (1.0, 1.0, math.nan), (1.0, math.inf, 0.04),
        (math.inf, 1.0, 0.04),
    ])
    def test_non_finite_inputs_are_a_domain_error(self, F, K, total_variance):
        # A NaN forward or variance used to price as NaN, and K = inf
        # raised a bare "math domain error".
        with pytest.raises(DomainError):
            black76_price(F, K, total_variance, 1.0)

    @pytest.mark.parametrize("vol, t_e", [(0.0, 1.0), (0.2, 0.0), (math.nan, 1.0)])
    def test_vega_needs_a_positive_vol_and_expiry(self, vol, t_e):
        # vol = 0 used to raise ZeroDivisionError.
        with pytest.raises(DomainError):
            black76_vega(1.0, 1.0, t_e, vol, 1.0)

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
            ["calibrate", "--quotes", str(quotes), "--budget", "40"],
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

    def test_settled_newton_step_is_returned(self):
        # At vol 0.3055, t_e = 0.5, K = 1.2 the last Newton step lands on
        # the bracket's edge, and the bracket's midpoint, 7.5e-10 away,
        # used to come back in its place.
        for vol in np.linspace(0.3, 0.5, 201):
            for t_e, K in ((0.5, 1.2), (1.0, 1.0), (2.0, 1.4), (0.5, 0.8)):
                price = black76_price(1.0, K, vol**2 * t_e, 0.97)
                assert implied_vol(price, 1.0, K, t_e, 0.97) == pytest.approx(vol, rel=1e-13)

    def test_intrinsic_price_maps_to_zero_vol(self):
        assert implied_vol(0.3 * 0.95, 1.3, 1.0, 1.0, 0.95) == 0.0
        assert implied_vol(0.0, 1.0, 1.4, 1.0, 1.0) == 0.0

    def test_price_above_forward_rejected(self):
        with pytest.raises(NoArbitrageViolation):
            implied_vol(1.01, 1.0, 1.0, 1.0, 1.0)

    def test_price_below_intrinsic_rejected(self):
        with pytest.raises(NoArbitrageViolation):
            implied_vol(0.1, 1.3, 1.0, 1.0, 1.0)

    def test_price_at_or_below_the_bracket_floor_returns_it(self):
        # At the money, above intrinsic by more than the 1e-10 tolerance
        # but at or below the price at vol 1e-6 (3.8e-7), the bracket's
        # lower edge comes back.
        floor = black76_price(1.0, 1.0, 1e-12, 0.95)
        for price in (2e-10, floor):
            assert implied_vol(price, 1.0, 1.0, 1.0, 0.95) == 1e-6

    @pytest.mark.parametrize("K", [0.9, 1.0, 1.1])
    def test_price_past_the_bracket_ceiling_raises(self, K):
        ceiling = black76_price(1.0, K, 100.0, 0.95)
        assert ceiling < 0.95
        with pytest.raises(NoArbitrageViolation, match="above 10"):
            implied_vol(0.5 * (ceiling + 0.95), 1.0, K, 1.0, 0.95)

    @staticmethod
    def newton_through_public_formulas(price, F, K, t_e, D, kind):
        """`implied_vol`'s bracketed Newton iteration on a price inside
        its bounds, each iterate priced by `black76_price` and
        `black76_vega`."""
        upper = D * F if kind == "call" else D * K
        tol = 1e-10 * max(1.0, upper)
        lo, hi = 1e-6, 10.0
        if price <= black76_price(F, K, lo * lo * t_e, D, kind):
            return lo
        if price >= black76_price(F, K, hi * hi * t_e, D, kind):
            return "above"
        vol = 0.3
        for _ in range(200):
            diff = black76_price(F, K, vol * vol * t_e, D, kind) - price
            if diff > 0.0:
                hi = vol
            else:
                lo = vol
            vega = black76_vega(F, K, t_e, vol, D)
            candidate = vol - diff / vega if vega > 1e-14 else 0.5 * (lo + hi)
            if abs(diff) <= tol and abs(candidate - vol) <= 1e-9 * max(1.0, vol):
                return candidate
            if not lo < candidate < hi:
                candidate = 0.5 * (lo + hi)
            if hi - lo <= 1e-13 * max(1.0, hi):
                return candidate
            vol = candidate
        return "failed"

    def test_newton_matches_the_public_formulas_bit_for_bit(self):
        # implied_vol computes log(F / K) and sqrt(t_e) once per inversion
        # and prices its iterates without checks; every vol must be the
        # one the public formulas' iteration returns.
        inverted = 0
        for t_e in np.geomspace(1e-3, 30.0, 7):
            for moneyness in np.geomspace(0.2, 5.0, 9):
                for vol in np.geomspace(0.01, 3.0, 8):
                    for kind, D in (("call", 0.97), ("put", 0.8)):
                        F, K = 1.3, 1.3 * moneyness
                        price = black76_price(F, K, vol * vol * t_e, D, kind)
                        lower = D * max(F - K if kind == "call" else K - F, 0.0)
                        upper = D * F if kind == "call" else D * K
                        if not lower + 1e-10 * max(1.0, upper) < price < upper:
                            continue
                        want = self.newton_through_public_formulas(price, F, K, t_e, D, kind)
                        if isinstance(want, str):
                            with pytest.raises(NoArbitrageViolation):
                                implied_vol(price, F, K, t_e, D, kind)
                            continue
                        got = implied_vol(price, F, K, t_e, D, kind)
                        assert got.hex() == float(want).hex(), (t_e, moneyness, vol, kind)
                        inverted += 1
        assert inverted >= 400

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(5))
    def test_non_finite_inputs_rejected(self, bad, position):
        # (price, F, K, t_e, D); a NaN price used to come back as vol 10.
        args = [0.1, 1.0, 1.0, 1.0, 1.0]
        args[position] = bad
        with pytest.raises(DomainError):
            implied_vol(*args)


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
        # Slices of one lag read their prices off one row whose tau grid is
        # cut at each of their expiries.  The first piece of a row is the
        # pass of its expiry alone, so the shortest expiry of each lag
        # prices bit for bit as it does alone; a later one takes fewer
        # steps than alone, and both sit within the pricer's accuracy.
        together = call_prices(self.SLICES, curves, fig1, quad)
        shortest = {}
        for t_e, T, _ in self.SLICES:
            shortest[T - t_e] = min(t_e, shortest.get(T - t_e, t_e))
        for (t_e, T, strikes), prices in zip(self.SLICES, together):
            (alone,) = call_prices([(t_e, T, strikes)], curves, fig1, quad)
            if shortest[T - t_e] == t_e:
                assert list(map(float.hex, prices)) == list(map(float.hex, alone))
            assert np.max(np.abs(prices - alone)) <= 1e-9

    @pytest.mark.parametrize("theta_max", [200.0, 60.0])
    def test_stacked_sets_equal_one_set_calls(self, curves, fig1, sec5, theta_max, monkeypatch):
        # Mixed lags, and mixed steps: 0.1y sits at the 20-step floor.
        # The diverging set takes the steps alpha = -4 would size, too few
        # for its alpha = 4, so B diverges on most slices beside the
        # healthy sets.  Capped at theta = 60 the 0.1y slice fails its
        # tail test; at sigma = 0.05 its tail is still too wide at 200.
        q = QuadratureConfig(theta_max=theta_max)
        slices = self.SLICES + [(0.1, 0.1, [0.9, 1.0, 1.1])]
        diverging = replace(fig1, alpha=4.0, sigma=0.8)
        sets = [fig1, diverging, sec5, replace(fig1, sigma=0.05), replace(fig1, sigma=0.5)]

        def undersized(t_e, p, theta_top, lag):
            if p is diverging:
                p = replace(p, alpha=-p.alpha)
            return default_ab_steps(t_e, p, theta_top, lag)

        monkeypatch.setattr(fwdvol.pricing, "default_ab_steps", undersized)

        def exact(prices):
            if isinstance(prices, Exception):
                return type(prices), str(prices)
            return tuple(map(float.hex, prices))

        def exactly(result):
            return exact(result.prices), result.theta_stop, result.steps

        stacked = price_slices(slices, curves, sets, q)
        assert len(stacked) == len(sets)
        for p, results in zip(sets, stacked):
            alone = price_slices(slices, curves, p, q)
            assert list(map(exactly, results)) == list(map(exactly, alone))
        outcomes = {type(result.prices) for results in stacked for result in results}
        assert {np.ndarray, NonConvergence, QuadratureTailError} <= outcomes
        short = stacked[0][-1]
        assert isinstance(short.prices, QuadratureTailError) == (theta_max == 60.0)
        assert short.steps[0] == 20 != stacked[0][0].steps[0]
        together = call_prices(slices, curves, sets, q)
        assert [[exact(r.prices) for r in results] for results in stacked] == [
            list(map(exact, prices)) for prices in together
        ]

    def test_failures_stay_per_slice(self, curves, fig1):
        # Capped at theta = 60, the 0.1y slice's slowly decaying tail fails
        # the tail test; the others stop after that first block anyway, and
        # price there exactly as without the cap.
        capped = QuadratureConfig(theta_max=60.0)
        slices = [(0.1, 0.1, [1.0]), (0.5, 0.5, [1.0]), (1.0, 1.0, [1.0]),
                  (2.0, 2.0, [1.0]), (0.3, 1.7, [1.0])]
        short, *rest = call_prices(slices, curves, fig1, capped)
        assert isinstance(short, QuadratureTailError)
        with pytest.raises(QuadratureTailError):
            smile_table([1.0], 0.1, 0.1, curves, fig1, capped)
        _, *uncapped = call_prices(slices, curves, fig1)
        for (t_e, T, _), prices, free in zip(slices[1:], rest, uncapped):
            assert prices[0] == free[0]
            assert prices[0] == pytest.approx(
                smile_table([1.0], t_e, T, curves, fig1, capped)[0][3], abs=1e-9
            )

    def test_late_divergence_prices(self, curves, fig1):
        # A 400-step pass up to theta = 200 diverges near tau = 1.65 (see
        # test_charfn); steps sized from each block's top theta, 600 and
        # 904 here, do not, and price within 1.9e-11 of the reference.
        p = replace(fig1, **LATE_DIVERGENCE)
        strikes = [0.8, 1.0, 1.25]
        (prices,) = call_prices([(2.0, 2.0, strikes)], curves, p)
        (reference,) = reference_call_prices([(2.0, 2.0, strikes)], curves, p, n_steps=1600)
        assert np.max(np.abs(prices - reference)) <= 1e-9

    def test_row_past_an_underflowed_vol_prices_slice_by_slice(self, curves, fig1):
        # beta1 = beta2 = 40 at lag 10: sigma_F^2 underflows to 0 over the
        # whole row, so its later piece keeps its whole step share.  With
        # no variance left neither slice's tail closes, and each fails
        # alone, as a one-expiry row of the same set does.
        p = replace(fig1, beta1=40.0, beta2=40.0)
        slices = [(1.0, 11.0, [1.0]), (2.0, 12.0, [1.0])]
        row = price_slices(slices, curves, p)
        assert [result.steps[0] for result in row] == default_ab_steps([1.0, 2.0], p, 60.0, 10.0)
        for result, slice_ in zip(row, slices):
            assert isinstance(result.prices, QuadratureTailError)
            (alone,) = price_slices([slice_], curves, p)
            assert isinstance(alone.prices, QuadratureTailError)

    def test_too_few_steps_fail_as_nonconvergence(self, curves, fig1, monkeypatch):
        # Two steps for alpha = 2 at t_e = 0.1 leave |f| far above 1 on
        # some nodes without tripping the |B| guard; the slice fails alone
        # instead of overflowing the pricing kernel.
        monkeypatch.setattr(fwdvol.pricing, "default_ab_steps",
                            lambda t_e, p, theta_top, lag: [2] * len(t_e))
        (result,) = price_slices([(0.1, 0.1, [1.0])], curves, replace(fig1, alpha=2.0))
        assert isinstance(result.prices, NonConvergence)
        assert "modulus" in str(result.prices)

    def test_rejects_bad_slices(self, curves, fig1):
        with pytest.raises(DomainError):
            call_prices([(1.0, 1.0, [1.0]), (2.0, 1.0, [1.0])], curves, fig1)
        with pytest.raises(DomainError):
            call_prices([(1.0, 1.0, [1.0, 0.0])], curves, fig1)
        for bad in ((1.0, 1.0, [1.0, math.nan]), (1.0, 1.0, [math.inf]),
                    (math.inf, math.inf, [1.0]), (1.0, math.inf, [1.0]),
                    (math.nan, 1.0, [1.0])):
            with pytest.raises(DomainError):
                call_prices([bad], curves, fig1)

    def test_rejects_invalid_sets_before_pricing(self, curves, fig1):
        # Unvalidated, beta = -10 overflows the Riccati pass and reads as
        # two quadrature tail failures.
        slices = [(1.0, 1.0, [0.8, 1.0, 1.2]), (2.0, 2.0, [1.0])]
        with pytest.raises(InvalidModelParams):
            call_prices(slices, curves, replace(fig1, beta=-10.0))
        not_psd = replace(fig1, rho=-0.9, rho1=0.9, rho2=0.9)
        with pytest.raises(InvalidModelParams):
            price_slices(slices, curves, [fig1, not_psd])

    def test_theta_grid_structure(self, quad):
        # The first block is ten panels graded from theta = 0 out to 60,
        # each later one six 10-wide panels; theta_max ends the last.
        nodes, weights, blocks = _theta_grid(quad)
        n = quad.n_nodes
        assert [top for _, _, top in blocks] == [60.0, 120.0, 180.0, 200.0]
        assert [(block.start, block.stop) for block, _, _ in blocks] == [
            (0, 10 * n), (10 * n, 16 * n), (16 * n, 22 * n), (22 * n, 24 * n),
        ]
        for block, tail, top in blocks:
            last_panel = nodes[block][tail]
            assert last_panel.size == n
            assert top - 10.0 < last_panel[0] and last_panel[-1] < top
            assert abs(weights[block][tail].sum() - 10.0) <= 1e-12
        assert 0.0 < nodes[0] and np.all(np.diff(nodes) > 0.0) and nodes[-1] < quad.theta_max
        assert abs(weights.sum() - quad.theta_max) <= 1e-12

    def test_default_theta_grid_node_for_node(self, quad):
        # Twelve nodes on each panel: 120 in the first block and 72 in each
        # later full one.  Its last panel, [190, 200], is a full one, so
        # folding a sliver last panel into the one before leaves it alone.
        n = quad.n_nodes
        x, w = np.polynomial.legendre.leggauss(n)
        edges = np.array([0.0, 0.0625, 0.25, 0.75, 1.75, 3.75, 10.0, 20.0, 35.0, 50.0]
                         + [10.0 * k for k in range(6, 21)])
        half = 0.5 * np.diff(edges)[:, None]
        nodes, weights, blocks = _theta_grid(quad)
        assert np.array_equal(nodes, (half * (x + 1.0) + edges[:-1, None]).ravel())
        assert np.array_equal(weights, (half * w).ravel())
        assert (n, nodes.size) == (12, 288)
        assert [block.stop - block.start for block, _, _ in blocks] == [120, 72, 72, 24]
        tail = slice(-n, None)
        assert blocks == (
            (slice(0, 120), tail, 60.0), (slice(120, 192), tail, 120.0),
            (slice(192, 264), tail, 180.0), (slice(264, 288), tail, 200.0),
        )

    @pytest.mark.parametrize("theta_max, last_panel", [
        (5.0, (3.75, 5.0)), (12.0, (3.75, 12.0)), (23.0, (10.0, 23.0)), (38.0, (29.0, 38.0)),
        (40.0, (35.0, 40.0)), (47.0, (35.0, 47.0)), (52.0, (43.5, 52.0)), (125.0, (120.0, 125.0)),
        (124.0, (110.0, 124.0)),
    ])
    def test_cap_ends_the_last_panel(self, theta_max, last_panel):
        # The last panel ends at the cap and, unless it starts below 10,
        # is 5 to 15 wide: a sliver joins the panel before it, and a
        # joined 15-wide one is halved.
        q = QuadratureConfig(theta_max=theta_max)
        nodes, weights, blocks = _theta_grid(q)
        block, tail, top = blocks[-1]
        assert top == theta_max
        lo, hi = last_panel
        assert lo < nodes[block][tail][0] and nodes[block][tail][-1] < hi
        assert abs(weights[block][tail].sum() - (hi - lo)) <= 1e-12
        assert np.all(np.diff(nodes) > 0.0) and abs(weights.sum() - theta_max) <= 1e-12

    @pytest.mark.parametrize("theta_max", [60.0, 60.01, 64.99])
    def test_cap_past_a_panel_edge_leaves_no_sliver(self, fig1, curves, theta_max):
        # 60.01 used to end the grid with a [60, 60.01] panel whose tail
        # test the 0.1y slice passed almost for nothing, while at 60 the
        # panel [50, 60] reads 1.27e-9.  A last panel under 5 wide now
        # joins the one before it, so every cap here fails alike.
        q = QuadratureConfig(theta_max=theta_max)
        nodes, weights, ((block, tail, top),) = _theta_grid(q)
        assert top == theta_max
        assert nodes[block][tail][0] > 50.0
        assert abs(weights[block][tail].sum() - (theta_max - 50.0)) <= 1e-12
        (result,) = call_prices([(0.1, 0.1, [1.0])], curves, fig1, q)
        assert isinstance(result, QuadratureTailError)

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
    BLOCK_TOPS = [60.0, 120.0, 180.0, 200.0]

    def sweep(self, request, curves, preset, alpha):
        p = request.getfixturevalue(preset)
        if alpha != "preset":
            p = replace(p, alpha=alpha)
        slices = [(t_e, T, np.array([m * curves.forward(T) for m in self.STRIKES]))
                  for t_e, T in self.PAIRS]
        return p, slices

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("alpha", [0.0, "preset", 2.0, 3.0])
    def test_sweep_matches_reference(self, request, curves, preset, alpha):
        # An absolute yardstick: at t_e = 0.1, K = 2F the price is 2e-10, and
        # 64- and 128-node panels differ there by 1e-14 but 7e-6 relative.
        # The worst gap is 4.8e-10 D F (sec5, alpha = 3, t_e = 0.1).
        p, slices = self.sweep(request, curves, preset, alpha)
        references = reference_call_prices(slices, curves, p)
        for (t_e, T, _), prices, reference in zip(slices, call_prices(slices, curves, p), references):
            assert not isinstance(prices, Exception), (t_e, T, prices)
            bound = 1e-9 * curves.discount(T) * curves.forward(T)
            assert np.max(np.abs(prices - reference)) <= bound, (t_e, T)

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("alpha", ["preset", 3.0])
    def test_grid_matches_uniform_panels_at_equal_steps(self, request, curves, preset, alpha):
        # The quadrature error alone: each block of 10-wide 256-node panels
        # takes the tau grid the pricer took there, cut at the expiries of
        # the slices of that lag still open.  Beside the poles of the
        # integrand at theta = -i and -i u*, 64-node panels miss sec5
        # alpha = 3, t_e = 10 by 3.7e-6 D F and 128-node ones by 7.5e-11;
        # the graded 12-node grid misses 256-node ones by 1.2e-13 at worst
        # (sec5, alpha = 3, t_e = 10).
        p, slices = self.sweep(request, curves, preset, alpha)
        results = price_slices(slices, curves, p)
        for (t_e, T, strikes), result in zip(slices, results):
            integral, lo = 0.0, 0.0
            for top, n_steps in zip(self.BLOCK_TOPS, result.steps):
                expiries = sorted(t for (t, S, _), other in zip(slices, results)
                                  if S - t == T - t_e and other.theta_stop >= top)
                knots = list(zip(expiries, default_ab_steps(expiries, p, top, T - t_e)))
                assert (t_e, n_steps) in knots
                thetas, weights = uniform_panels(256, lo, top)
                (ab,) = integrate_ab_snapshots(thetas, T - t_e, knots, [n_steps], p)
                terms = weighted_integrand(thetas, weights, ab, T, strikes, curves)
                integral, lo = integral + terms.sum(axis=0), top
            uniform = prices_from(integral, T, strikes, curves)
            bound = 1e-12 * curves.discount(T) * curves.forward(T)
            assert np.max(np.abs(result.prices - uniform)) <= bound, (t_e, T)

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
    def test_default_nodes_match_64_a_panel(self, request, curves, preset, alpha):
        # The quadrature error of twelve nodes a panel alone: 64 on the
        # same edges stop at the same block, so every row takes the same
        # steps.  The worst gap is 1.8e-13 D F (sec5, alpha = 0, t_e = 5,
        # lag 1).  Up to alpha = 1 every slice from 0.25 years stops after
        # the first block, and every 0.02y slice reads a later one; at
        # alpha = 3 fig1's slices up to 5 years and all of sec5's read
        # theta up to 120 or 180.
        p = replace(request.getfixturevalue(preset), alpha=alpha)
        slices = [(t_e, t_e + lag, np.array([m * curves.forward(t_e + lag) for m in self.STRIKES]))
                  for lag in (0.0, 1.0) for t_e in (0.02, 0.25, 2.0, 5.0, 10.0)]
        fine = price_slices(slices, curves, p, QuadratureConfig(n_nodes=64))
        for (t_e, T, _), result, reference in zip(slices, price_slices(slices, curves, p), fine):
            assert (result.theta_stop, result.steps) == (reference.theta_stop, reference.steps)
            if t_e == 0.02:
                assert result.theta_stop > 60.0
            elif alpha <= 1.0:
                assert result.theta_stop == 60.0
            bound = 1e-12 * curves.discount(T) * curves.forward(T)
            assert np.max(np.abs(result.prices - reference.prices)) <= bound, (t_e, T)

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("alpha, lag", [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)])
    def test_graded_rows_match_classical_steps(self, request, curves, preset, alpha, lag):
        # One row of expiries 0.25-10 at one lag, each piece of its tau
        # grid on its own steps, against one classical pass of 1600 steps
        # a year on the nodes the pricer used.
        p = replace(request.getfixturevalue(preset), alpha=alpha)
        expiries = [0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
        slices = [(t_e, t_e + lag, np.array([m * curves.forward(t_e + lag) for m in self.STRIKES]))
                  for t_e in expiries]
        results = price_slices(slices, curves, p)
        nodes, weights, _ = _theta_grid(QuadratureConfig())
        reach = nodes < max(result.theta_stop for result in results)
        stops = [round(1600 * t_e) for t_e in expiries]
        passes = reference_ab(nodes[reach], 10.0, 10.0 + lag, p, stops[-1], stops)
        for (t_e, T, strikes), result, ab in zip(slices, results, passes):
            used = nodes[reach] < result.theta_stop
            terms = weighted_integrand(nodes[reach][used], weights[reach][used],
                                       (ab[0][used], ab[1][used]), T, strikes, curves)
            reference = prices_from(terms.sum(axis=0), T, strikes, curves)
            bound = 1e-9 * curves.discount(T) * curves.forward(T)
            assert np.max(np.abs(result.prices - reference)) <= bound, (t_e, T)

    @pytest.mark.parametrize("case", ["fast_reversion", "sec5_short_lag", "start_row"])
    def test_step_rule_corners_match_classical_steps(self, curves, fig1, sec5, case):
        # Where earlier step rules missed: fig1 with beta2 = 10 at alpha =
        # 0.5 (1.05e-9 at t_e = 0.75) and sec5 at alpha = 2.5, t_e = 0.25,
        # lag 1 (6.8e-10); and the row of the calibration's start point
        # (fig1 with each parameter scaled by 0.8 or 1.2), read at 0.5, 1
        # and 2 years.  Each against one classical pass of 3200 steps a
        # year on the nodes the pricer used.
        p, lag, expiries = {
            "fast_reversion": (replace(fig1, beta2=10.0, alpha=0.5), 0.0, [0.75]),
            "sec5_short_lag": (replace(sec5, alpha=2.5), 1.0, [0.25]),
            "start_row": (acceptance_start(fig1), 0.0, [0.5, 1.0, 2.0]),
        }[case]
        slices = [(t_e, t_e + lag, np.array([m * curves.forward(t_e + lag) for m in self.STRIKES]))
                  for t_e in expiries]
        results = price_slices(slices, curves, p)
        nodes, weights, _ = _theta_grid(QuadratureConfig())
        reach = nodes < max(result.theta_stop for result in results)
        stops = [round(3200 * t_e) for t_e in expiries]
        passes = reference_ab(nodes[reach], expiries[-1], expiries[-1] + lag, p, stops[-1], stops)
        for (t_e, T, strikes), result, ab in zip(slices, results, passes):
            used = nodes[reach] < result.theta_stop
            terms = weighted_integrand(nodes[reach][used], weights[reach][used],
                                       (ab[0][used], ab[1][used]), T, strikes, curves)
            reference = prices_from(terms.sum(axis=0), T, strikes, curves)
            bound = 5.1e-10 * curves.discount(T) * curves.forward(T)
            assert np.max(np.abs(result.prices - reference)) <= bound, (t_e, T)

    def test_tail_test_sees_through_cancellation(self, curves, fig1):
        # At this strike the signed integral over the panel [50, 60]
        # cancels to below the tolerance, although the tail beyond 60 is
        # worth 2.2e-8; the bound on |integrand| sends the slice on.
        p = replace(fig1, alpha=2.0)
        (prices,) = call_prices([(0.05, 0.05, [1.7955])], curves, p)
        (reference,) = reference_call_prices([(0.05, 0.05, [1.7955])], curves, p)
        assert abs(prices[0] - reference[0]) <= 1e-9

    def test_fast_reversion_matches_reference(self, curves, fig1):
        # The variance rate's forcing is integrated exactly, so fast
        # reversion reaches the steps only through the cross term: this
        # slice set reads 2.6e-10 against a 1600-steps-a-year pass.
        p = replace(fig1, beta2=10.0)
        slices = [(t_e, t_e, self.STRIKES) for t_e in (0.25, 1.0, 2.0)]
        references = reference_call_prices(slices, curves, p)
        for (t_e, _, _), prices, reference in zip(slices, call_prices(slices, curves, p), references):
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

"""European option pricing on curve forwards via Fourier inversion.

The undiscounted call value on F(t_e, T) with strike K admits the single
integral representation

    C / D(T) = F - K/2 - (K / pi) * Int_0^inf Re[ f(theta)
               exp(-i theta ln(K/F)) / (theta^2 + i theta) ] dtheta

where f is the characteristic function of ln(F(t_e,T)/F(0,T)) started from
x = 0, v = 1.  The integrand decays rapidly and is smooth, so composite
Gauss-Legendre panels are accurate and cheap.  Each slice integrates them
block by block outward from theta = 0 and stops at the first block whose
last panel passes a tail test, so short expiries, whose characteristic
function decays slowly, reach further than long ones.  Each block is one
Riccati pass over every open slice of every parameter set priced
together; a set's slices that share the lag T - t_e and step read their
characteristic functions off one row of it (`price_slices`).  Puts come
from parity; implied volatilities invert the Black-76 formula with a
bracketed Newton iteration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# integrate_ab stays reachable as ``fwdvol.pricing.integrate_ab``.
from .charfn import default_ab_steps, integrate_ab, integrate_ab_rows  # noqa: F401
from .errors import DomainError, FwdVolError, NoArbitrageViolation, QuadratureTailError
from .model import MarketCurves, ModelParams

__all__ = [
    "OptionSpec",
    "QuadratureConfig",
    "black76_price",
    "black76_vega",
    "implied_vol",
    "price",
    "call_price",
    "call_prices",
    "price_slices",
    "SliceResult",
    "put_price",
    "atm_term_structure",
    "smile_slice",
    "term_structure_table",
    "smile_table",
]

_VOL_BRACKET = (1e-6, 10.0)
# Panels per block of the theta grid.  At the presets' alpha every slice
# with t_e >= 0.25 stops after the first block (theta <= 60 at the
# default panel width); each further block costs one more Riccati pass.
_PANELS_PER_BLOCK = 6
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


@dataclass(frozen=True)
class OptionSpec:
    """European option on the forward F(t_e, T).

    ``t_e`` is the expiry of the option and ``T`` the settlement of the
    underlying forward; t_e = T is the vanilla case, t_e < T exercises
    early into a forward that has not yet settled.
    """

    t_e: float
    T: float
    strike: float
    kind: str = "call"

    def __post_init__(self):
        if not 0.0 < self.t_e <= self.T:
            raise DomainError("OptionSpec requires 0 < t_e <= T")
        if self.strike <= 0.0:
            raise DomainError("strike must be > 0")
        if self.kind not in ("call", "put"):
            raise DomainError("kind must be 'call' or 'put'")


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature settings for the Fourier pricer.

    The transform integral is evaluated with ``n_nodes`` Gauss-Legendre
    nodes on each panel of width ``panel_width``, in blocks of six panels
    from theta = 0.  A slice stops after the first block whose last panel
    passes the tail test: the integral of |f(theta) / (theta^2 + i theta)|
    over that panel, which bounds its contribution at every strike, must
    stay below ``tail_tolerance``.  ``theta_max`` caps the grid; a slice
    whose last panel still fails there raises `QuadratureTailError`.  Each
    block is one Riccati pass over the open slices of every set priced,
    and each slice takes ``charfn.default_ab_steps`` RK4 steps for the
    block's top theta.
    """

    theta_max: float = 200.0
    n_nodes: int = 64
    tail_tolerance: float = 1e-10
    panel_width: float = 10.0

    def __post_init__(self):
        if self.theta_max <= 0.0:
            raise DomainError("theta_max must be > 0")
        if self.n_nodes < 16:
            raise DomainError("n_nodes must be >= 16")
        if self.tail_tolerance <= 0.0:
            raise DomainError("tail_tolerance must be > 0")
        if self.panel_width <= 0.0:
            raise DomainError("panel_width must be > 0")


def black76_price(F: float, K: float, total_variance: float, D: float, kind: str = "call") -> float:
    """Black-76 option value with total log variance ``total_variance``.

    Zero (or negative, which is clipped) total variance returns discounted
    intrinsic value.
    """
    if F <= 0.0 or K <= 0.0 or D <= 0.0:
        raise DomainError("black76_price requires F, K, D > 0")
    if kind not in ("call", "put"):
        raise DomainError("kind must be 'call' or 'put'")
    if total_variance <= 0.0:
        intrinsic = max(F - K, 0.0) if kind == "call" else max(K - F, 0.0)
        return D * intrinsic
    s = math.sqrt(total_variance)
    d1 = math.log(F / K) / s + 0.5 * s
    d2 = d1 - s
    if kind == "call":
        return D * (F * _norm_cdf(d1) - K * _norm_cdf(d2))
    return D * (K * _norm_cdf(-d2) - F * _norm_cdf(-d1))


def black76_vega(F: float, K: float, t_e: float, vol: float, D: float) -> float:
    s = vol * math.sqrt(t_e)
    d1 = math.log(F / K) / s + 0.5 * s
    return D * F * math.sqrt(t_e) * _INV_SQRT_2PI * math.exp(-0.5 * d1 * d1)


def implied_vol(price: float, F: float, K: float, t_e: float, D: float, kind: str = "call") -> float:
    """Black-76 implied volatility of a European option price.

    Newton iteration with a maintained bisection bracket on
    [1e-6, 10]; prices at the lower no-arbitrage bound return 0.

    Raises
    ------
    NoArbitrageViolation
        If the price lies outside the static bounds for this option, or
        needs a volatility beyond the bracket.
    """
    if F <= 0.0 or K <= 0.0 or D <= 0.0 or t_e <= 0.0:
        raise DomainError("implied_vol requires F, K, D, t_e > 0")
    if kind not in ("call", "put"):
        raise DomainError("kind must be 'call' or 'put'")
    if kind == "call":
        lower, upper = D * max(F - K, 0.0), D * F
    else:
        lower, upper = D * max(K - F, 0.0), D * K
    tol = 1e-10 * max(1.0, upper)
    if price < lower - tol or price >= upper:
        raise NoArbitrageViolation(
            f"{kind} price {price} outside no-arbitrage bounds [{lower}, {upper})"
        )
    if price <= lower + tol:
        return 0.0

    lo, hi = _VOL_BRACKET
    price_lo = black76_price(F, K, lo * lo * t_e, D, kind)
    price_hi = black76_price(F, K, hi * hi * t_e, D, kind)
    if price <= price_lo:
        return lo
    if price >= price_hi:
        raise NoArbitrageViolation(
            f"price {price} needs implied volatility above {hi}"
        )
    vol = 0.3
    for _ in range(200):
        model = black76_price(F, K, vol * vol * t_e, D, kind)
        diff = model - price
        if diff > 0.0:
            hi = vol
        else:
            lo = vol
        vega = black76_vega(F, K, t_e, vol, D)
        if vega > 1e-14:
            candidate = vol - diff / vega
        else:
            candidate = 0.5 * (lo + hi)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        # The price tolerance alone is too loose where vega collapses
        # (deep in/out of the money); demand a settled vol as well.
        if abs(diff) <= tol and abs(candidate - vol) <= 1e-9 * max(1.0, vol):
            return float(candidate)
        if hi - lo <= 1e-13 * max(1.0, hi):
            return float(candidate)
        vol = candidate
    raise NoArbitrageViolation(f"implied volatility iteration failed for price {price}")


@functools.lru_cache(maxsize=None)
def _theta_grid(q: QuadratureConfig):
    """Gauss-Legendre nodes and weights over (0, theta_max], and its blocks.

    Each block is (node slice, top theta) for `_PANELS_PER_BLOCK` panels;
    the last block ends at theta_max.  Built once per config; the arrays
    are read-only because they are shared.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(q.n_nodes)
    edges = [0.0]
    while edges[-1] + q.panel_width < q.theta_max - 1e-12:
        edges.append(edges[-1] + q.panel_width)
    edges.append(q.theta_max)
    nodes, weights = [], []
    for a, b in zip(edges, edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(half * (base_x + 1.0) + a)
        weights.append(half * base_w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    n_panels = len(edges) - 1
    blocks = tuple(
        (
            slice(first * q.n_nodes, min(first + _PANELS_PER_BLOCK, n_panels) * q.n_nodes),
            edges[min(first + _PANELS_PER_BLOCK, n_panels)],
        )
        for first in range(0, n_panels, _PANELS_PER_BLOCK)
    )
    return nodes, weights, blocks


@dataclass(frozen=True)
class SliceResult:
    """One (t_e, T, strikes) slice as `price_slices` priced it.

    ``prices`` holds a call price per strike, or the `FwdVolError` that
    stopped the slice.  ``theta_stop`` is where its theta integral stopped
    and ``steps`` the RK4 step count of each block pass it took.
    """

    prices: np.ndarray | FwdVolError
    theta_stop: float
    steps: tuple[int, ...]


def price_slices(
    slices,
    curves: MarketCurves,
    p: ModelParams | Sequence[ModelParams],
    q: QuadratureConfig | None = None,
) -> list:
    """Call prices for several (t_e, T, strikes) slices, block by block in theta.

    ``p`` is one parameter set, or a sequence of them priced together.
    Every open slice of every set integrates the next block of the theta
    grid, and each block is one `integrate_ab_rows` pass on that block's
    nodes: a set's slices that share the lag T - t_e and the RK4 step
    t_e / `default_ab_steps` are snapshots of one row of it.  A slice
    closes once the last panel of a block passes the tail test (see
    `QuadratureConfig`), or with `QuadratureTailError` when it still fails
    at ``q.theta_max``, or with `NonConvergence` if B diverged before its
    expiry.  Each price is clamped to its static no-arbitrage band
    [D max(F - K, 0), D F]; the clamp only ever absorbs quadrature residue
    of the order of the tail tolerance.

    Returns a list of `SliceResult` aligned with ``slices``, or for a
    sequence of sets one such list per set, each equal to that set's own
    call; a failure stops its own slice alone.
    """
    q = q or QuadratureConfig()
    stacked = not isinstance(p, ModelParams)
    ps = tuple(p) if stacked else (p,)
    thetas, weights, blocks = _theta_grid(q)
    slices = [(t_e, T, np.asarray(strikes, dtype=float)) for t_e, T, strikes in slices]
    for t_e, T, strikes in slices:
        if not 0.0 < t_e <= T:
            raise DomainError("price_slices requires 0 < t_e <= T")
        if np.any(strikes <= 0.0):
            raise DomainError("strikes must be > 0")

    integrals = [[np.zeros(strikes.shape) for _, _, strikes in slices] for _ in ps]
    steps: list[list[list[int]]] = [[[] for _ in slices] for _ in ps]
    out: list[list] = [[None] * len(slices) for _ in ps]
    for block, theta_top in blocks:
        at_cap = theta_top == blocks[-1][1]
        # One row per set, lag and step: its open slices' indices and steps.
        rows: dict[tuple[int, float, float], list[tuple[int, int]]] = {}
        for i, p_i in enumerate(ps):
            for index, (t_e, T, _) in enumerate(slices):
                if out[i][index] is None:
                    n_steps = default_ab_steps(t_e, p_i, theta_top, T - t_e)
                    rows.setdefault((i, T - t_e, t_e / n_steps), []).append((index, n_steps))
                    steps[i][index].append(n_steps)
        if not rows:
            break
        nodes, node_weights = thetas[block], weights[block]
        last_panel = slice(len(nodes) - q.n_nodes, len(nodes))
        denominator = nodes**2 + 1j * nodes
        # Each slice's strike phases on this block, shared by every set.
        phases: dict[int, np.ndarray] = {}
        passes = integrate_ab_rows(
            nodes,
            [(lag, h, [n for _, n in members], ps[i]) for (i, lag, h), members in rows.items()],
        )
        for ((i, _, _), members), snapshots in zip(rows.items(), passes):
            for (index, _), snapshot in zip(members, snapshots):
                result = snapshot
                if not isinstance(snapshot, FwdVolError):
                    _, T, strikes = slices[index]
                    if index not in phases:
                        log_moneyness = np.log(strikes / curves.forward(T))
                        phases[index] = np.exp(-1j * np.outer(nodes, log_moneyness))
                    a_val, b_val = snapshot
                    kernel = np.exp(a_val + b_val * ps[i].v0) / denominator
                    integrals[i][index] += node_weights @ np.real(kernel[:, None] * phases[index])
                    tail = float(node_weights[last_panel] @ np.abs(kernel[last_panel]))
                    if tail <= q.tail_tolerance:
                        result = _prices_from_integral(strikes, integrals[i][index], T, curves)
                    elif at_cap:
                        result = QuadratureTailError(
                            f"last quadrature panel contributes up to {tail:.3e} > tail "
                            f"tolerance {q.tail_tolerance:.3e}; increase theta_max"
                        )
                    else:
                        continue
                out[i][index] = SliceResult(result, theta_top, tuple(steps[i][index]))
    return out if stacked else out[0]


def _prices_from_integral(strikes, integral, T, curves: MarketCurves) -> np.ndarray:
    F = curves.forward(T)
    D = curves.discount(T)
    prices = D * (F - 0.5 * strikes - (strikes / math.pi) * integral)
    return np.clip(prices, D * np.maximum(F - strikes, 0.0), D * F)


def call_prices(
    slices,
    curves: MarketCurves,
    p: ModelParams | Sequence[ModelParams],
    q: QuadratureConfig | None = None,
) -> list:
    """Call prices for several (t_e, T, strikes) slices; see `price_slices`.

    Returns a list aligned with ``slices``: an array of call prices per
    strike, or the `FwdVolError` that stopped that slice alone
    (`NonConvergence` if B diverged before its expiry,
    `QuadratureTailError` if its last panel at ``q.theta_max`` is too
    large).  For a sequence of parameter sets, one such list per set.
    """
    results = price_slices(slices, curves, p, q)
    if isinstance(p, ModelParams):
        return [result.prices for result in results]
    return [[result.prices for result in per_set] for per_set in results]


def _priced(result) -> np.ndarray:
    """One `call_prices` entry, raising the slice's error if it failed."""
    if isinstance(result, FwdVolError):
        raise result
    return result


def call_price(
    spec: OptionSpec,
    curves: MarketCurves,
    p: ModelParams,
    q: QuadratureConfig | None = None,
) -> float:
    """European call value on F(t_e, T) by Fourier inversion.

    The result is clamped to its static no-arbitrage band
    [D max(F - K, 0), D F]; the clamp only ever absorbs quadrature residue
    of the order of the tail tolerance.
    """
    (result,) = call_prices([(spec.t_e, spec.T, [spec.strike])], curves, p, q)
    return float(_priced(result)[0])


def put_price(
    spec: OptionSpec,
    curves: MarketCurves,
    p: ModelParams,
    q: QuadratureConfig | None = None,
) -> float:
    """European put value via put-call parity P = C - D (F - K)."""
    F = curves.forward(spec.T)
    D = curves.discount(spec.T)
    return call_price(spec, curves, p, q) - D * (F - spec.strike)


def price(spec: OptionSpec, curves: MarketCurves, p: ModelParams, q: QuadratureConfig | None = None) -> float:
    """Price ``spec`` according to its kind."""
    if spec.kind == "call":
        return call_price(spec, curves, p, q)
    return put_price(spec, curves, p, q)


def term_structure_table(
    expiries,
    curves: MarketCurves,
    p: ModelParams,
    q: QuadratureConfig | None = None,
):
    """At-the-money vanilla rows (t_e, T, K, price, implied_vol) per expiry."""
    expiries = [float(t_e) for t_e in expiries]
    slices = [(T, T, [curves.forward(T)]) for T in expiries]
    rows = []
    for (T, _, (F,)), result in zip(slices, call_prices(slices, curves, p, q)):
        px = float(_priced(result)[0])
        vol = implied_vol(px, F, F, T, curves.discount(T), "call")
        rows.append((T, T, F, px, vol))
    return rows


def atm_term_structure(
    expiries,
    curves: MarketCurves,
    p: ModelParams,
    q: QuadratureConfig | None = None,
):
    """At-the-money implied volatility per vanilla expiry, as (t_e, vol) pairs."""
    return [(t_e, vol) for t_e, _, _, _, vol in term_structure_table(expiries, curves, p, q)]


def smile_table(
    strikes,
    t_e: float,
    T: float,
    curves: MarketCurves,
    p: ModelParams,
    q: QuadratureConfig | None = None,
):
    """Smile rows (t_e, T, K, price, implied_vol) for one expiry/settlement."""
    strikes = np.asarray(strikes, dtype=float)
    (result,) = call_prices([(t_e, T, strikes)], curves, p, q)
    prices = _priced(result)
    F = curves.forward(T)
    D = curves.discount(T)
    rows = []
    for K, px in zip(strikes, prices):
        vol = implied_vol(float(px), F, float(K), t_e, D, "call")
        rows.append((t_e, T, float(K), float(px), vol))
    return rows


def smile_slice(
    strikes,
    t_e: float,
    T: float,
    curves: MarketCurves,
    p: ModelParams,
    q: QuadratureConfig | None = None,
):
    """Implied volatility per strike at one (t_e, T), as (K, vol) pairs."""
    return [(K, vol) for _, _, K, _, vol in smile_table(strikes, t_e, T, curves, p, q)]

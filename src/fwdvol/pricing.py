"""European option pricing on curve forwards via Fourier inversion.

The undiscounted call value on F(t_e, T) with strike K admits the single
integral representation

    C / D(T) = F - K/2 - (K / pi) * Int_0^inf Re[ f(theta)
               exp(-i theta ln(K/F)) / (theta^2 + i theta) ] dtheta

where f is the characteristic function of ln(F(t_e,T)/F(0,T)) started from
x = 0, v = 1.  The integrand decays rapidly and is smooth on the real
line, but it is singular just below theta = 0, so the composite
Gauss-Legendre panels narrow geometrically toward theta = 0 and are 10
to 15 wide beyond theta = 10 (`QuadratureConfig`); at 12 nodes a panel
the first block, theta <= 60, holds 120 nodes and each later block 72.
Each slice integrates them block by block outward from theta = 0 and
stops at the first block whose last panel passes a tail test, so short
expiries, whose characteristic function decays slowly, reach further
than long ones.  Each block is one
Riccati pass over every open slice of every parameter set priced
together; a set's slices that share the lag T - t_e read their
characteristic functions off one row of it, whose tau grid is cut at
each of their expiries (`price_slices`).  Puts come
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
from .charfn import (  # noqa: F401
    _MODULUS_TOLERANCE,
    default_ab_steps,
    integrate_ab,
    integrate_ab_rows,
)
from .errors import (
    DomainError,
    FwdVolError,
    NoArbitrageViolation,
    NonConvergence,
    QuadratureTailError,
    _index,
)
from .model import MarketCurves, ModelParams, validate_params

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
# Edges of the theta grid's first block, theta <= 60.  The integrand is
# singular at theta = -i, the pole of 1 / (theta^2 + i theta), and at
# -i u*, where the moments of F explode, with u* just above 1 on
# long-dated high-alpha sets.  Gauss-Legendre converges at a rate set by
# a singularity's distance against the panel's width, so the panels widen
# geometrically from theta = 0 (Lord & Kahl 2007) up to 10, and beyond it
# are 10, 15, 15 and 10 wide; the last stays 10 wide for the tail test.
# Twelve nodes on each of these panels miss 64 on each by 1.9e-13 D F
# (sec5, alpha = 0, t_e = 5) on both presets at alpha 0 to 3, expiries
# 0.02-10 and lags 0 and 1.  Sixty-four nodes on all of [0, 10] miss sec5
# at alpha = 3, t_e = 10 by 3.7e-6 D F; edges at 0.0625, 0.25, 1, 3, 10,
# 20 and 35 at twelve nodes a panel miss sec5 at alpha = 0, t_e = 5 by
# 7.5e-11, and ten nodes on this grid's panels miss fig1 at alpha = 0,
# t_e = 10 by 3.7e-11.
_FIRST_BLOCK_EDGES = (0.0, 0.0625, 0.25, 0.75, 1.75, 3.75, 10.0, 20.0, 35.0, 50.0, 60.0)
# Each later block is six 10-wide panels.  At the presets' alpha every
# slice with t_e >= 0.25 stops after the first block; each further block
# costs one more Riccati pass.
_PANELS_PER_BLOCK = 6
_PANEL_WIDTH = 10.0
# A slice closes once its last panel's bound falls below this (see
# `QuadratureConfig`).
_TAIL_TOLERANCE = 1e-10
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
        if not 0.0 < self.t_e <= self.T < math.inf:
            raise DomainError("OptionSpec requires 0 < t_e <= T < inf")
        if not 0.0 < self.strike < math.inf:
            raise DomainError("strike must be finite and > 0")
        if self.kind not in ("call", "put"):
            raise DomainError("kind must be 'call' or 'put'")


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature settings for the Fourier pricer.

    The transform integral is evaluated with ``n_nodes`` Gauss-Legendre
    nodes on each panel.  The first block, theta <= 60, has ten panels,
    with edges at 0.0625, 0.25, 0.75, 1.75, 3.75, 10, 20, 35 and 50,
    narrowing toward theta = 0 because the integrand is singular just
    below it; each later block has six 10-wide panels.  So the first
    block carries 10 ``n_nodes`` nodes and each later one 6 ``n_nodes``:
    120 and 72 at the default 12.  On both presets at alpha 0 to 3,
    expiries 0.02-10 and lags 0 and 1 that prices within 2e-13 D F of 64
    nodes a panel on the same edges at the same RK4 steps, and every
    block's last panel, over which the tail test runs, is 10 wide.  A
    slice stops after the first block whose last panel passes the tail
    test: the integral of |f(theta) / (theta^2 + i theta)| over that
    panel, which bounds its contribution at every strike, must stay below
    1e-10.  ``theta_max`` caps the grid; the last panel ends there and,
    unless it starts below theta = 10, is 5 to 15 wide, so no cap leaves
    a sliver that passes the tail test for free.  A slice whose last
    panel still fails at the cap raises `QuadratureTailError`.  Each
    block is one Riccati pass over the open slices of every set priced,
    with one row per set and lag; each row's tau grid is cut at the
    expiries of its slices, and its pieces take ``charfn.default_ab_steps``
    RK4 steps for the block's top theta, so a slice alone takes the steps
    of its expiry and a slice behind a shorter one fewer.
    """

    theta_max: float = 200.0
    n_nodes: int = 12

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", _index(self.n_nodes, "n_nodes"))
        if not 0.0 < self.theta_max < math.inf:
            raise DomainError("theta_max must be finite and > 0")
        if self.n_nodes < 12:
            raise DomainError("n_nodes must be >= 12")


def _black76(F: float, K: float, log_moneyness: float, total_variance: float, D: float,
             call: bool) -> float:
    """`black76_price` of checked inputs, with log(F / K) given; it is
    read only where the total variance is > 0."""
    if total_variance <= 0.0:
        return D * (max(F - K, 0.0) if call else max(K - F, 0.0))
    s = math.sqrt(total_variance)
    d1 = log_moneyness / s + 0.5 * s
    d2 = d1 - s
    if call:
        return D * (F * _norm_cdf(d1) - K * _norm_cdf(d2))
    return D * (K * _norm_cdf(-d2) - F * _norm_cdf(-d1))


def black76_price(F: float, K: float, total_variance: float, D: float, kind: str = "call") -> float:
    """Black-76 option value with total log variance ``total_variance``.

    Zero (or negative, which is clipped) total variance returns discounted
    intrinsic value.
    """
    if not (0.0 < F < math.inf and 0.0 < K < math.inf and 0.0 < D < math.inf
            and not math.isnan(total_variance)):
        raise DomainError("black76_price requires finite F, K, D > 0 and a total variance")
    if kind not in ("call", "put"):
        raise DomainError("kind must be 'call' or 'put'")
    log_moneyness = math.log(F / K) if total_variance > 0.0 else 0.0
    return _black76(F, K, log_moneyness, total_variance, D, kind == "call")


def black76_vega(F: float, K: float, t_e: float, vol: float, D: float) -> float:
    if not (0.0 < vol < math.inf and 0.0 < t_e < math.inf):
        raise DomainError("black76_vega requires finite vol, t_e > 0")
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
    if not (0.0 < F < math.inf and 0.0 < K < math.inf and 0.0 < D < math.inf
            and 0.0 < t_e < math.inf and math.isfinite(price)):
        raise DomainError("implied_vol requires a finite price and finite F, K, D, t_e > 0")
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

    # What `black76_price` and `black76_vega` would compute on every
    # iteration, computed once.
    call, log_moneyness, root_t = kind == "call", math.log(F / K), math.sqrt(t_e)
    vega_scale = D * F * root_t * _INV_SQRT_2PI
    lo, hi = _VOL_BRACKET
    if price <= _black76(F, K, log_moneyness, lo * lo * t_e, D, call):
        return lo
    if price >= _black76(F, K, log_moneyness, hi * hi * t_e, D, call):
        raise NoArbitrageViolation(
            f"price {price} needs implied volatility above {hi}"
        )
    vol = 0.3
    for _ in range(200):
        diff = _black76(F, K, log_moneyness, vol * vol * t_e, D, call) - price
        if diff > 0.0:
            hi = vol
        else:
            lo = vol
        s = vol * root_t
        d1 = log_moneyness / s + 0.5 * s
        vega = vega_scale * math.exp(-0.5 * d1 * d1)
        if vega > 1e-14:
            candidate = vol - diff / vega
        else:
            candidate = 0.5 * (lo + hi)
        # The price tolerance alone is too loose where vega collapses
        # (deep in/out of the money); demand a settled vol as well.  The
        # test comes before the bracket's fallback: a settled Newton step
        # can land on the bracket's edge, and its midpoint is no root.
        if abs(diff) <= tol and abs(candidate - vol) <= 1e-9 * max(1.0, vol):
            return float(candidate)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * max(1.0, hi):
            return float(candidate)
        vol = candidate
    raise NoArbitrageViolation(f"implied volatility iteration failed for price {price}")


@functools.lru_cache(maxsize=None)
def _theta_grid(q: QuadratureConfig):
    """Gauss-Legendre nodes and weights over (0, theta_max], and its blocks.

    The first block's panels have `_FIRST_BLOCK_EDGES` and each later
    block's are 10 wide; each panel carries ``q.n_nodes`` nodes.  The last
    panel ends at theta_max and, unless it starts below theta = 10, is 5 to
    15 wide.  Each block is (node slice, its last panel's slice within the
    block, top theta): the first block's ten panels, then six panels a
    block; the last block ends at theta_max.  Built once per config; the
    arrays are read-only because they are shared.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(q.n_nodes)
    edges = list(_FIRST_BLOCK_EDGES)
    while edges[-1] < q.theta_max - 1e-12:
        edges.append(edges[-1] + _PANEL_WIDTH)
    edges = [edge for edge in edges if edge < q.theta_max - 1e-12] + [q.theta_max]
    # A last panel narrower than half a panel joins the one before it, and
    # a joined panel wider than 15 is halved, so the tail test never runs
    # over a sliver that passes it for free, nor over a panel too wide for
    # its nodes.
    if edges[-2] >= _PANEL_WIDTH and q.theta_max - edges[-2] < 0.5 * _PANEL_WIDTH:
        del edges[-2]
        if q.theta_max - edges[-2] > 1.5 * _PANEL_WIDTH:
            edges.insert(-1, 0.5 * (edges[-2] + q.theta_max))
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (half * (base_x + 1.0) + np.array(edges[:-1])[:, None]).ravel()
    weights = (half * base_w).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    n_panels = len(edges) - 1
    ends = [*range(len(_FIRST_BLOCK_EDGES) - 1, n_panels, _PANELS_PER_BLOCK), n_panels]
    blocks, start = [], 0
    for end in ends:
        blocks.append((slice(start, end * q.n_nodes), slice(-q.n_nodes, None), edges[end]))
        start = end * q.n_nodes
    return nodes, weights, tuple(blocks)


@dataclass(frozen=True)
class SliceResult:
    """One (t_e, T, strikes) slice as `price_slices` priced it.

    ``prices`` holds a call price per strike, or the `FwdVolError` that
    stopped the slice.  ``theta_stop`` is where its theta integral stopped,
    ``steps`` the RK4 steps its row took to its expiry in each block pass
    and ``nodes`` the theta nodes it integrated.
    """

    prices: np.ndarray | FwdVolError
    theta_stop: float
    steps: tuple[int, ...]
    nodes: int


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
    nodes: a set's open slices that share the lag T - t_e are snapshots of
    one row of it, whose tau grid is cut at each of their expiries, each
    piece on the steps `default_ab_steps` gives it.  ``steps`` of a
    `SliceResult` counts the steps to the slice's own expiry.  A slice
    closes once the last panel of a block passes the tail test (see
    `QuadratureConfig`), or with `QuadratureTailError` when it still fails
    at ``q.theta_max``, or with `NonConvergence` if B diverged before its
    expiry or its characteristic function's modulus passed 1, which only
    too few steps for its set can bring about.  Each price is clamped to
    its static no-arbitrage band [D max(F - K, 0), D F]; the clamp only
    ever absorbs quadrature residue of the order of the tail tolerance.
    Every set is checked by `validate_params` before the first pass, so
    an invalid one raises `InvalidModelParams` instead of overflowing the
    Riccati system.

    Returns a list of `SliceResult` aligned with ``slices``, or for a
    sequence of sets one such list per set, each equal to that set's own
    call; a failure stops its own slice alone.
    """
    stacked = not isinstance(p, ModelParams)
    ps = tuple(p) if stacked else (p,)
    for p_i in ps:
        validate_params(p_i)
    slices = [(t_e, T, np.asarray(strikes, dtype=float)) for t_e, T, strikes in slices]
    for t_e, T, strikes in slices:
        if not 0.0 < t_e <= T < math.inf:
            raise DomainError("price_slices requires 0 < t_e <= T < inf")
        if not np.all((strikes > 0.0) & (strikes < math.inf)):
            raise DomainError("strikes must be finite and > 0")
    curve_values = [(curves.forward(T), curves.discount(T)) for _, T, _ in slices]
    out = _price_checked(slices, curve_values, ps, q or QuadratureConfig())
    return out if stacked else out[0]


def _price_checked(slices, curve_values, ps, q: QuadratureConfig) -> list[list[SliceResult]]:
    """`price_slices` of checked inputs, one list per set of ``ps``.

    ``slices`` hold their strikes as float arrays, ``curve_values`` each
    slice's (F(0, T), D(T)), and every set of ``ps`` has passed
    `validate_params`.
    """
    thetas, weights, blocks = _theta_grid(q)
    integrals = [[np.zeros(strikes.shape) for _, _, strikes in slices] for _ in ps]
    steps: list[list[list[int]]] = [[[] for _ in slices] for _ in ps]
    out: list[list] = [[None] * len(slices) for _ in ps]
    for block, tail_panel, theta_top in blocks:
        at_cap = theta_top == blocks[-1][2]
        # One row per set and lag: its open slices' indices.
        groups: dict[tuple[int, float], list[int]] = {}
        for i in range(len(ps)):
            for index, (t_e, T, _) in enumerate(slices):
                if out[i][index] is None:
                    groups.setdefault((i, T - t_e), []).append(index)
        if not groups:
            break
        # Each row's tau grid is cut at each of its expiries, which read
        # their snapshots off its knots.
        rows = []
        for (i, lag), members in groups.items():
            expiries = sorted({slices[index][0] for index in members})
            knots = dict(zip(expiries, default_ab_steps(expiries, ps[i], theta_top, lag)))
            stops = [knots[slices[index][0]] for index in members]
            rows.append((lag, list(knots.items()), stops, ps[i]))
            for index, n in zip(members, stops):
                steps[i][index].append(n)
        nodes, node_weights = thetas[block], weights[block]
        # Each slice's strike phases on this block, shared by every set.
        phases: dict[int, np.ndarray] = {}
        # The (set, slice) pairs whose snapshots came through, with the
        # exponents A + B v(0) = A + B of their characteristic functions
        # stacked.
        priced, exponents = [], []
        for ((i, _), members), snapshots in zip(groups.items(), integrate_ab_rows(nodes, rows)):
            for index, snapshot in zip(members, snapshots):
                if isinstance(snapshot, FwdVolError):
                    out[i][index] = SliceResult(snapshot, theta_top, tuple(steps[i][index]),
                                                block.stop)
                else:
                    priced.append((i, index))
                    exponents.append(snapshot)
        if not priced:
            continue
        a_val, b_val = np.array(exponents).transpose(1, 0, 2)
        exponent = a_val + b_val
        # |f| <= 1 on real theta; a pass with too few steps for its set
        # can break that without tripping the |B| guard.  Such a row's
        # kernel is not formed, so that it cannot overflow.
        bounded = exponent.real.max(axis=1) <= _MODULUS_TOLERANCE
        if not bounded.all():
            exponent[~bounded] = 0.0
        kernels = np.exp(exponent) / (nodes**2 + 1j * nodes)
        for (i, index), kernel, fine in zip(priced, kernels, bounded.tolist()):
            if not fine:
                result = NonConvergence(
                    f"characteristic function modulus exceeded 1 after "
                    f"{steps[i][index][-1]} RK4 steps"
                )
                out[i][index] = SliceResult(result, theta_top, tuple(steps[i][index]), block.stop)
                continue
            _, _, strikes = slices[index]
            F, D = curve_values[index]
            if index not in phases:
                phases[index] = np.exp(-1j * np.outer(nodes, np.log(strikes / F)))
            integrals[i][index] += node_weights @ np.real(kernel[:, None] * phases[index])
            tail = float(node_weights[tail_panel] @ np.abs(kernel[tail_panel]))
            if tail <= _TAIL_TOLERANCE:
                prices = D * (F - 0.5 * strikes - (strikes / math.pi) * integrals[i][index])
                result = np.clip(prices, D * np.maximum(F - strikes, 0.0), D * F)
            elif at_cap:
                result = QuadratureTailError(
                    f"last quadrature panel contributes up to {tail:.3e} > tail "
                    f"tolerance {_TAIL_TOLERANCE:.3e}; increase theta_max"
                )
            else:
                continue
            out[i][index] = SliceResult(result, theta_top, tuple(steps[i][index]), block.stop)
    return out


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

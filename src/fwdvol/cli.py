"""Command-line interface.

Subcommands: price, term-structure, smile, mc-price, drift-study,
k-table, calibrate.  Every command accepts --seed, --threads, --out, and
a parameter source (--params file or --preset); writing --out also
writes a sibling run manifest with the resolved configuration and a
checksum of each emitted file, so a run can be reproduced bit-exactly.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .calibration import VolQuote, fit
from .driftfactor import drift_factor_result
from .errors import FwdVolError, NoArbitrageViolation, NumericalError
from .mc import McConfig, PayoffSpec, drift_error_study, price_payoff
from .model import MarketCurves, ModelParams, validate_params
from .pricing import (
    OptionSpec,
    QuadratureConfig,
    implied_vol,
    price_slices,
    smile_table,
    term_structure_table,
)
from .presets import PRESETS, flat_curves

__all__ = ["main", "RunManifest"]


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI run bit-exactly."""

    command: str
    inputs: tuple[str, ...]
    config: dict
    seed: int
    version: str
    outputs: dict


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _float_list(text: str) -> list[float]:
    values = [float(piece) for piece in text.split(",") if piece.strip()]
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


def _resolve_params(args, file_attr: str = "params") -> tuple[ModelParams, list[str]]:
    """Parameter source plus the list of files consumed."""
    path = getattr(args, file_attr, None)
    if path:
        p = ModelParams.from_dict(_load_json(path))
        validate_params(p)
        return p, [path]
    preset = args.preset or args.default_preset
    return PRESETS[preset], []


def _resolve_curves(args) -> tuple[MarketCurves, list[str]]:
    if args.curves:
        return MarketCurves.from_dict(_load_json(args.curves)), [args.curves]
    return flat_curves(), []


def _config_dict(args) -> dict:
    skip = ("handler", "default_preset")
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_manifest(args, inputs: list[str], outputs: list[str]) -> None:
    if not args.out:
        return
    manifest = RunManifest(
        command=args.command,
        inputs=tuple(inputs),
        config=_config_dict(args),
        seed=args.seed,
        version=__version__,
        outputs={path: _sha256(path) for path in outputs},
    )
    path = args.out + ".manifest.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(asdict(manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _emit_csv(args, header: list[str], rows, inputs: list[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        _write_manifest(args, inputs, [args.out])
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit_json(args, payload: dict, inputs: list[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        _write_manifest(args, inputs, [args.out])


def _cmd_price(args) -> int:
    p, used = _resolve_params(args)
    curves, curve_files = _resolve_curves(args)
    q = QuadratureConfig(theta_max=args.theta_max, n_nodes=args.panel_nodes)
    T = args.T if args.T is not None else args.t_e
    spec = OptionSpec(t_e=args.t_e, T=T, strike=args.strike, kind=args.option)
    (result,) = price_slices([(spec.t_e, spec.T, [spec.strike])], curves, p, q)
    if isinstance(result.prices, FwdVolError):
        raise result.prices
    F = curves.forward(T)
    D = curves.discount(T)
    value = float(result.prices[0])
    if spec.kind == "put":
        value -= D * (F - spec.strike)
    vol = implied_vol(value, F, spec.strike, spec.t_e, D, spec.kind)
    style = "vanilla" if spec.t_e == spec.T else "early_exercise"
    print(f"{style} {spec.kind} t_e={spec.t_e} T={spec.T} K={spec.strike}")
    print(f"price = {value!r}")
    print(f"implied_vol = {vol!r}")
    # What the pricer used: where this slice's theta integral stopped, and
    # the RK4 steps of each block pass.
    print(
        "quadrature: theta_stop=%g theta_max=%g nodes_per_panel=%d ode_steps=%s"
        % (result.theta_stop, q.theta_max, q.n_nodes, "+".join(map(str, result.steps)))
    )
    _emit_json(
        args,
        {
            "command": "price",
            "kind": spec.kind,
            "style": style,
            "t_e": spec.t_e,
            "T": spec.T,
            "strike": spec.strike,
            "price": value,
            "implied_vol": vol,
        },
        used + curve_files,
    )
    return 0


def _cmd_term_structure(args) -> int:
    p, used = _resolve_params(args)
    curves, curve_files = _resolve_curves(args)
    expiries = _float_list(args.expiries)
    rows = term_structure_table(expiries, curves, p)
    _emit_csv(
        args,
        ["t_e", "T", "K", "price", "implied_vol"],
        [[str(x) for x in row] for row in rows],
        used + curve_files,
    )
    return 0


def _cmd_smile(args) -> int:
    p, used = _resolve_params(args)
    curves, curve_files = _resolve_curves(args)
    strikes = _float_list(args.strikes)
    T = args.T if args.T is not None else args.t_e
    rows = smile_table(strikes, args.t_e, T, curves, p)
    _emit_csv(
        args,
        ["t_e", "T", "K", "price", "implied_vol"],
        [[str(x) for x in row] for row in rows],
        used + curve_files,
    )
    return 0


def _build_payoff(args) -> tuple[PayoffSpec, list[str]]:
    if args.payoff == "asian_prompt":
        if not args.fixings:
            raise FwdVolError("asian_prompt needs --fixings FILE")
        schedule = _load_json(args.fixings)
        payoff = PayoffSpec(
            kind="asian_prompt",
            strike=args.strike,
            option=args.option,
            fixings=tuple((float(t), float(T)) for t, T in schedule),
        )
        return payoff, [args.fixings]
    T = args.T if args.T is not None else args.t_e
    return (
        PayoffSpec(
            kind=args.payoff, strike=args.strike, option=args.option, t_e=args.t_e, T=T
        ),
        [],
    )


def _cmd_mc_price(args) -> int:
    p, used = _resolve_params(args)
    curves, curve_files = _resolve_curves(args)
    payoff, payoff_files = _build_payoff(args)
    horizon = args.horizon if args.horizon is not None else payoff.expiry
    settlements = payoff.settlements() if args.mode == "exact_per_T" else ()
    cfg = McConfig(
        n_paths=args.paths,
        n_steps=args.steps,
        horizon=horizon,
        seed=args.seed,
        drift_mode=args.mode,
        exact_settlements=settlements,
        antithetic=args.antithetic,
        threads=args.threads,
    )
    est = price_payoff(payoff, cfg, curves, p)
    print(f"value = {est.value!r}")
    print(f"std_error = {est.std_error!r}")
    print(f"n_paths = {est.n_paths}")
    _emit_json(
        args,
        {
            "command": "mc-price",
            "value": est.value,
            "std_error": est.std_error,
            "n_paths": est.n_paths,
            "drift_mode": args.mode,
        },
        used + curve_files + payoff_files,
    )
    return 0


def _cmd_drift_study(args) -> int:
    p, used = _resolve_params(args)
    curves, curve_files = _resolve_curves(args)
    alphas = _float_list(args.alphas)
    cfg = McConfig(
        n_paths=args.paths,
        n_steps=args.steps,
        horizon=args.t_e,
        seed=args.seed,
        drift_mode="exact_per_T",
        exact_settlements=(args.T,),
        antithetic=args.antithetic,
        threads=args.threads,
    )
    rows = drift_error_study(alphas, cfg, curves, p)
    _emit_csv(
        args,
        [
            "alpha",
            "fwd_err_bp",
            "fwd_stderr_bp",
            "atm_vol_err_pct",
            "atm_vol_stderr_pct",
            "otm_vol_err_pct",
            "otm_vol_stderr_pct",
        ],
        [
            [
                str(r.alpha),
                str(r.fwd_err_bp),
                str(r.fwd_stderr_bp),
                str(r.atm_vol_err_pct),
                str(r.atm_vol_stderr_pct),
                str(r.otm_vol_err_pct),
                str(r.otm_vol_stderr_pct),
            ]
            for r in rows
        ],
        used + curve_files,
    )
    return 0


def _cmd_k_table(args) -> int:
    p, used = _resolve_params(args)
    grid = np.linspace(args.t_min, args.t_max, args.n)
    rows = []
    for t in grid:
        result = drift_factor_result(float(t), args.T, p)
        rows.append([str(result.t), str(result.T), str(result.k_sq), result.method])
    _emit_csv(args, ["t", "T", "k_sq", "method"], rows, used)
    return 0


def _cmd_calibrate(args) -> int:
    initial, used = _resolve_params(args, file_attr="initial")
    curves, curve_files = _resolve_curves(args)
    raw = _load_json(args.quotes)
    quotes = [
        VolQuote(
            t_e=float(entry["t_e"]),
            T=float(entry["T"]),
            strike=float(entry["K"]),
            market_vol=float(entry["vol"]),
            weight=float(entry.get("weight", 1.0)),
        )
        for entry in raw
    ]
    result = fit(quotes, initial, curves, budget=args.budget)
    print(f"objective = {result.objective!r}")
    print(f"n_evals = {result.n_evals}")
    print(f"converged = {result.converged}")
    _emit_json(
        args,
        {
            "command": "calibrate",
            "params": result.params.to_dict(),
            "objective": result.objective,
            "n_evals": result.n_evals,
            "converged": result.converged,
        },
        used + curve_files + [args.quotes],
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--threads", type=int, default=1, help="worker threads")
    common.add_argument("--out", default=None, help="output file (plus manifest)")
    common.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default=None,
        help="canonical parameter set",
    )
    common.add_argument("--params", default=None, help="model parameter JSON file")
    common.add_argument("--curves", default=None, help="market curves JSON file")

    parser = argparse.ArgumentParser(
        prog="fwdvol",
        description="Two-factor forward-curve model with stochastic volatility.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("price", parents=[common], help="Fourier option price")
    sp.add_argument("--t-e", dest="t_e", type=float, required=True)
    sp.add_argument("--T", dest="T", type=float, default=None, help="defaults to t_e")
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--option", choices=("call", "put"), default="call")
    sp.add_argument("--theta-max", dest="theta_max", type=float, default=200.0)
    sp.add_argument("--panel-nodes", dest="panel_nodes", type=int, default=64)
    sp.set_defaults(handler=_cmd_price, default_preset="fig1")

    sp = sub.add_parser(
        "term-structure", parents=[common], help="ATM vanilla vol by expiry"
    )
    sp.add_argument("--expiries", default="0.1,0.25,0.5,1,2,3,5")
    sp.set_defaults(handler=_cmd_term_structure, default_preset="fig1")

    sp = sub.add_parser("smile", parents=[common], help="implied vol by strike")
    sp.add_argument("--t-e", dest="t_e", type=float, default=1.0)
    sp.add_argument("--T", dest="T", type=float, default=None, help="defaults to t_e")
    sp.add_argument(
        "--strikes", default="0.5,0.6,0.7,0.8,0.9,1.0,1.1,1.25,1.5,1.75,2.0"
    )
    sp.set_defaults(handler=_cmd_smile, default_preset="fig1")

    sp = sub.add_parser("mc-price", parents=[common], help="Monte Carlo price")
    sp.add_argument(
        "--payoff",
        choices=("vanilla", "early_exercise", "asian_prompt"),
        default="vanilla",
    )
    sp.add_argument("--t-e", dest="t_e", type=float, default=1.0)
    sp.add_argument("--T", dest="T", type=float, default=None, help="defaults to t_e")
    sp.add_argument("--strike", type=float, default=1.0)
    sp.add_argument("--option", choices=("call", "put"), default="call")
    sp.add_argument("--fixings", default=None, help="JSON [[t, T], ...] for asian_prompt")
    sp.add_argument("--paths", type=int, default=20000)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--horizon", type=float, default=None, help="defaults to expiry")
    sp.add_argument(
        "--mode", choices=("exact_per_T", "approximate"), default="exact_per_T"
    )
    sp.add_argument("--antithetic", action="store_true")
    sp.set_defaults(handler=_cmd_mc_price, default_preset="fig1")

    sp = sub.add_parser(
        "drift-study", parents=[common], help="exact vs approximate drift comparison"
    )
    sp.add_argument("--alphas", default="0,1,2,3")
    sp.add_argument("--t-e", dest="t_e", type=float, default=1.0)
    sp.add_argument("--T", dest="T", type=float, default=2.0)
    sp.add_argument("--paths", type=int, default=100000)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--antithetic", action="store_true")
    sp.set_defaults(handler=_cmd_drift_study, default_preset="sec5")

    sp = sub.add_parser("k-table", parents=[common], help="drift factor k^2 by time")
    sp.add_argument("--T", dest="T", type=float, default=2.0)
    sp.add_argument("--t-min", dest="t_min", type=float, default=0.1)
    sp.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=10)
    sp.set_defaults(handler=_cmd_k_table, default_preset="fig1")

    sp = sub.add_parser("calibrate", parents=[common], help="fit params to vol quotes")
    sp.add_argument("--quotes", required=True, help="JSON quote list")
    sp.add_argument("--initial", default=None, help="starting parameter JSON file")
    sp.add_argument("--budget", type=int, default=2000)
    sp.set_defaults(handler=_cmd_calibrate, default_preset="fig1")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly on bad flags or --help; keep the
        # int-return contract for programmatic callers.
        return int(exc.code or 0)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except (NumericalError, NoArbitrageViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FwdVolError, ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2

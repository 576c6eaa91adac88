"""Command-line interface.

Subcommands: price, term-structure, smile, mc-price, drift-study,
k-table, calibrate.  Every command accepts --seed, --threads, --out, and
a parameter source: --preset, or a file, --initial for calibrate and
--params for the others.  Every command but k-table also reads a
--curves file; a command rejects the file flags it would not read.
Writing --out also writes a sibling run manifest with the flags as
parsed, the files read and a checksum of each emitted file, so a run
can be reproduced bit-exactly.  The manifest records the flags, not the
values resolved from them: ``preset`` is null when the command's default
preset ran, and ``T`` is null when it defaults to ``t_e``.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .calibration import VolQuote, fit
from .driftfactor import drift_factor_result
from .errors import DomainError, FwdVolError, NoArbitrageViolation, NumericalError
from .mc import DriftStudyRow, McConfig, PayoffSpec, drift_error_study, price_payoff
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


def _parse_file(path: str, what: str, build):
    """``build`` applied to the JSON in ``path``; an input error in it is
    reported as a `DomainError` that names the file."""
    data = _load_json(path)
    try:
        return build(data)
    except (NumericalError, NoArbitrageViolation):
        raise
    except FwdVolError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    except (TypeError, KeyError, ValueError) as exc:
        raise DomainError(f"{path}: malformed {what}: {exc!r}") from exc


def _float_list(text: str) -> list[float]:
    values = [float(piece) for piece in text.split(",") if piece.strip()]
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


def _settlement(args) -> float:
    """--T, which defaults to --t-e."""
    return args.T if args.T is not None else args.t_e


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(handle, header: list[str], rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([str(x) for x in row] for row in rows)


def _emit(args, output, inputs: list[str]) -> None:
    """Write a CSV table ``(header, rows)`` to --out or stdout, or a JSON
    payload to --out only; with --out, write the run manifest beside it."""
    if not args.out:
        if not isinstance(output, dict):
            _write_csv(sys.stdout, *output)
        return
    if isinstance(output, dict):
        _write_json(args.out, output)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, *output)
    manifest = RunManifest(
        command=args.command,
        inputs=tuple(inputs),
        config=dict(vars(args)),
        seed=args.seed,
        version=__version__,
        outputs={args.out: _sha256(args.out)},
    )
    _write_json(args.out + ".manifest.json", asdict(manifest))


# Each subcommand takes the parsed flags, the resolved parameters and
# curves, and returns its output (a CSV ``(header, rows)`` or a JSON
# payload) with the further input files it read.


def _price(args, p, curves):
    q = QuadratureConfig(theta_max=args.theta_max, n_nodes=args.panel_nodes)
    spec = OptionSpec(args.t_e, _settlement(args), args.strike, args.option)
    (result,) = price_slices([(spec.t_e, spec.T, [spec.strike])], curves, p, q)
    if isinstance(result.prices, FwdVolError):
        raise result.prices
    F = curves.forward(spec.T)
    D = curves.discount(spec.T)
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
    return {
        "kind": spec.kind,
        "style": style,
        "t_e": spec.t_e,
        "T": spec.T,
        "strike": spec.strike,
        "price": value,
        "implied_vol": vol,
    }, []


def _term_structure(args, p, curves):
    rows = term_structure_table(_float_list(args.expiries), curves, p)
    return (["t_e", "T", "K", "price", "implied_vol"], rows), []


def _smile(args, p, curves):
    strikes = _float_list(args.strikes)
    rows = smile_table(strikes, args.t_e, _settlement(args), curves, p)
    return (["t_e", "T", "K", "price", "implied_vol"], rows), []


def _mc_config(args, **kwargs) -> McConfig:
    """The simulation flags of mc-price and drift-study, plus ``kwargs``."""
    kwargs.update(antithetic=args.antithetic, threads=args.threads)
    return McConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed, **kwargs)


def _mc_price(args, p, curves):
    kind, files = args.payoff, []
    if kind != "asian_prompt":
        payoff = PayoffSpec(kind, args.strike, args.option, args.t_e, _settlement(args))
    elif not args.fixings:
        raise FwdVolError("asian_prompt needs --fixings FILE")
    else:
        payoff = _parse_file(
            args.fixings,
            "fixings",
            lambda raw: PayoffSpec(kind, args.strike, args.option, fixings=raw),
        )
        files.append(args.fixings)
    cfg = _mc_config(
        args,
        horizon=args.horizon if args.horizon is not None else payoff.expiry,
        drift_mode=args.mode,
        exact_settlements=payoff.settlements() if args.mode == "exact_per_T" else (),
    )
    est = price_payoff(payoff, cfg, curves, p)
    print(f"value = {est.value!r}")
    print(f"std_error = {est.std_error!r}")
    print(f"n_paths = {est.n_paths}")
    return {
        "value": est.value,
        "std_error": est.std_error,
        "n_paths": est.n_paths,
        "drift_mode": args.mode,
    }, files


def _drift_study(args, p, curves):
    cfg = _mc_config(
        args, horizon=args.t_e, drift_mode="exact_per_T", exact_settlements=(args.T,)
    )
    study = drift_error_study(_float_list(args.alphas), cfg, curves, p)
    header = [f.name for f in fields(DriftStudyRow)]
    return (header, [[getattr(r, name) for name in header] for r in study]), []


def _k_table(args, p, curves):
    rows = []
    for t in np.linspace(args.t_min, args.t_max, args.n):
        result = drift_factor_result(float(t), args.T, p)
        rows.append([result.t, result.T, result.k_sq, result.method])
    return (["t", "T", "k_sq", "method"], rows), []


def _volquote(e) -> VolQuote:
    """One quote {"t_e", "T", "K", "vol", optional "weight"}."""
    values = (e["t_e"], e["T"], e["K"], e["vol"], e.get("weight", 1.0))
    return VolQuote(*map(float, values))


def _calibrate(args, p, curves):
    quotes = _parse_file(args.quotes, "quotes", lambda raw: [_volquote(e) for e in raw])
    result = fit(quotes, p, curves, budget=args.budget)
    print(f"objective = {result.objective!r}")
    print(f"n_evals = {result.n_evals}")
    print(f"converged = {result.converged}")
    return {
        "params": result.params.to_dict(),
        "objective": result.objective,
        "n_evals": result.n_evals,
        "converged": result.converged,
    }, [args.quotes]


# Subcommand: (function, default preset, flag naming the parameter file,
# whether it reads --curves).
_COMMANDS = {
    "price": (_price, "fig1", "params", True),
    "term-structure": (_term_structure, "fig1", "params", True),
    "smile": (_smile, "fig1", "params", True),
    "mc-price": (_mc_price, "fig1", "params", True),
    "drift-study": (_drift_study, "sec5", "params", True),
    "k-table": (_k_table, "fig1", "params", False),
    "calibrate": (_calibrate, "fig1", "initial", True),
}


def _run(args) -> int:
    """Resolve the parameters and curves, run the subcommand, emit its output."""
    run, default_preset, params_flag, reads_curves = _COMMANDS[args.command]
    path = getattr(args, params_flag)
    if path:
        p = _parse_file(
            path, "parameters", lambda raw: validate_params(ModelParams.from_dict(raw))
        )
        inputs = [path]
    else:
        p, inputs = PRESETS[args.preset or default_preset], []
    curves = None
    if reads_curves and args.curves:
        curves = _parse_file(args.curves, "curves", MarketCurves.from_dict)
        inputs.append(args.curves)
    elif reads_curves:
        curves = flat_curves()
    output, files = run(args, p, curves)
    if isinstance(output, dict):
        output["command"] = args.command
    _emit(args, output, inputs + files)
    return 0


def _add_expiry(sp, **t_e) -> None:
    """--t-e, then a --T that defaults to it (see `_settlement`)."""
    sp.add_argument("--t-e", dest="t_e", type=float, **t_e)
    sp.add_argument("--T", dest="T", type=float, default=None, help="defaults to t_e")


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

    parser = argparse.ArgumentParser(
        prog="fwdvol",
        description="Two-factor forward-curve model with stochastic volatility.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        """A subcommand with the common flags and the files it reads."""
        sp = sub.add_parser(name, parents=[common], **kwargs)
        _, _, params_flag, reads_curves = _COMMANDS[name]
        if params_flag == "params":
            sp.add_argument("--params", default=None, help="model parameter JSON file")
        if reads_curves:
            sp.add_argument("--curves", default=None, help="market curves JSON file")
        return sp

    sp = add_command("price", help="Fourier option price")
    _add_expiry(sp, required=True)
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--option", choices=("call", "put"), default="call")
    sp.add_argument("--theta-max", dest="theta_max", type=float, default=200.0)
    sp.add_argument("--panel-nodes", dest="panel_nodes", type=int, default=64)

    sp = add_command("term-structure", help="ATM vanilla vol by expiry")
    sp.add_argument("--expiries", default="0.1,0.25,0.5,1,2,3,5")

    sp = add_command("smile", help="implied vol by strike")
    _add_expiry(sp, default=1.0)
    sp.add_argument(
        "--strikes", default="0.5,0.6,0.7,0.8,0.9,1.0,1.1,1.25,1.5,1.75,2.0"
    )

    sp = add_command("mc-price", help="Monte Carlo price")
    sp.add_argument(
        "--payoff",
        choices=("vanilla", "early_exercise", "asian_prompt"),
        default="vanilla",
    )
    _add_expiry(sp, default=1.0)
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

    sp = add_command("drift-study", help="exact vs approximate drift comparison")
    sp.add_argument("--alphas", default="0,1,2,3")
    sp.add_argument("--t-e", dest="t_e", type=float, default=1.0)
    sp.add_argument("--T", dest="T", type=float, default=2.0)
    sp.add_argument("--paths", type=int, default=100000)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--antithetic", action="store_true")

    sp = add_command("k-table", help="drift factor k^2 by time")
    sp.add_argument("--T", dest="T", type=float, default=2.0)
    sp.add_argument("--t-min", dest="t_min", type=float, default=0.1)
    sp.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=10)

    sp = add_command("calibrate", help="fit params to vol quotes")
    sp.add_argument("--quotes", required=True, help="JSON quote list")
    sp.add_argument("--initial", default=None, help="starting parameter JSON file")
    sp.add_argument("--budget", type=int, default=2000)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly on bad flags or --help; keep the
        # int-return contract for programmatic callers.
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _run(args)
    except (NumericalError, NoArbitrageViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FwdVolError, ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2

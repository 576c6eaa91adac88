"""Benchmark workloads: inputs made from a seed, CLI calls and output oracles.

A workload writes its input files into a work directory, names the
``fwdvol`` command lines that make up one timed unit, and checks the
files those commands write.  The program sees only the generated files
and flags.  Seed 0 is the acceptance configuration; any other seed draws
its own start point or MC seed from ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

# Criterion 11's start point: each fig1 parameter scaled by +/-20 %.
ACCEPTANCE_FACTORS = {
    "sigma": 1.2, "beta1": 0.8, "beta2": 1.2, "R": 0.8, "rho": 0.8,
    "beta": 1.2, "alpha": 0.8, "rho1": 1.2, "rho2": 0.8,
}


def mc_seed(seed: int) -> int:
    """MC seed of a workload seed; 0 keeps the acceptance seed 0."""
    return 0 if seed == 0 else int(np.random.default_rng(seed).integers(1, 2**31))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Calibrate:
    """``fwdvol calibrate`` on the acceptance quote set with a fixed budget.

    Why: nearly all of its time goes through calibration -> pricing ->
    charfn -> model.variance_rate, while mc and driftfactor stay idle, so
    an MC change must predict no change here.
    """

    # Four evaluations, about 1 s, so the speed probes around each unit
    # sit close to the work they scale (see speed.py).
    budget: int = 4
    name: ClassVar[str] = "calibrate"
    lazy_setup: ClassVar[str | None] = None  # calibrate triggers no lazy set-up
    # Reference kernel that scales the timings (see speed.py).
    speed_kernel: ClassVar[str] = "riccati"

    def prepare(self, seed: int, workdir: Path) -> None:
        from fwdvol import TERM_STRUCTURE_SET, VolQuote, flat_curves, objective, smile_slice

        fig1, curves = TERM_STRUCTURE_SET, flat_curves()
        rows, quotes = [], []
        for t_e in (0.5, 1.0, 2.0):
            F = curves.forward(t_e)
            strikes = [m * F for m in (0.8, 1.0, 1.2, 1.4)]
            for K, vol in smile_slice(strikes, t_e, t_e, curves, fig1):
                rows.append({"t_e": t_e, "T": t_e, "K": K, "vol": vol})
                quotes.append(VolQuote(t_e=t_e, T=t_e, strike=K, market_vol=vol))
        if seed == 0:
            factors = ACCEPTANCE_FACTORS
        else:
            draws = np.random.default_rng(seed).uniform(0.8, 1.2, len(ACCEPTANCE_FACTORS))
            factors = dict(zip(ACCEPTANCE_FACTORS, draws.tolist()))
        start = replace(fig1, **{k: getattr(fig1, k) * f for k, f in factors.items()})
        self.quotes = workdir / "quotes.json"
        self.initial = workdir / "initial.json"
        self.out = workdir / "fit.json"
        self.quotes.write_text(json.dumps(rows), encoding="utf-8")
        self.initial.write_text(json.dumps(start.to_dict()), encoding="utf-8")
        self.reprice_objective = objective(fig1, quotes, curves)
        self.start_objective = objective(start, quotes, curves)

    def preflight(self) -> list[tuple[str, bool]]:
        """Checks of the generated inputs themselves, as (what, passed)."""
        return [(f"quotes reprice at fig1 to objective {self.reprice_objective!r} <= 1e-11",
                 self.reprice_objective <= 1e-11)]

    def calls(self, threads: int | None = None) -> list[tuple[str, list[str], Path]]:
        argv = ["calibrate", "--quotes", str(self.quotes), "--initial", str(self.initial),
                "--budget", str(self.budget), "--out", str(self.out)]
        return [("fit", argv, self.out)]

    def check(self, outputs: dict[str, Path]) -> tuple[list[str], float]:
        """Oracle failures and the work done (objective evaluations)."""
        fit = _read_json(outputs["fit"])
        failures = []
        if not fit["objective"] <= self.start_objective:
            failures.append(
                f"fit objective {fit['objective']!r} above start {self.start_objective!r}"
            )
        return failures, float(fit["n_evals"])


@dataclass
class DriftStudy:
    """The paper's section 5 experiment: ``fwdvol drift-study`` on sec5.

    Why: mc with one settlement carrying both drift representations on
    identical normals, plus pricing.implied_vol and the numeric k^2 route
    (sec5 has beta = 0); charfn stays idle.
    """

    paths: int = 100_000
    steps: int = 100
    alphas: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    name: ClassVar[str] = "drift-study"
    lazy_setup: ClassVar[str | None] = "closed_form_verification"
    speed_kernel: ClassVar[str] = "mc_block"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = mc_seed(seed)
        self.out = workdir / "study.csv"

    def preflight(self) -> list[tuple[str, bool]]:
        return []

    def calls(self, threads: int | None = None) -> list[tuple[str, list[str], Path]]:
        argv = ["drift-study", "--preset", "sec5",
                "--alphas", ",".join(str(a) for a in self.alphas),
                "--t-e", "1", "--T", "2", "--paths", str(self.paths),
                "--steps", str(self.steps), "--seed", str(self.seed),
                "--threads", str(threads or 1), "--out", str(self.out)]
        return [("study", argv, self.out)]

    def check(self, outputs: dict[str, Path]) -> tuple[list[str], float]:
        """Error clauses of criteria 5-7 (not their stderr clauses, which
        fail by design); work is path-steps."""
        with open(outputs["study"], encoding="utf-8", newline="") as handle:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]
        failures = []
        if [r["alpha"] for r in rows] != list(self.alphas):
            failures.append(f"study rows cover alphas {[r['alpha'] for r in rows]}")
        for r in rows:
            if r["alpha"] == 0.0 and not abs(r["fwd_err_bp"]) <= 1e-8:
                failures.append(f"alpha=0 forward error {r['fwd_err_bp']!r} bp is not 0")
            for key, gate in (("fwd_err_bp", 2.0), ("atm_vol_err_pct", 0.01),
                              ("otm_vol_err_pct", 0.02)):
                if not abs(r[key]) < gate:
                    failures.append(f"alpha={r['alpha']} |{key}| {r[key]!r} >= {gate}")
        return failures, float(self.paths * self.steps * len(self.alphas))


@dataclass
class Strip:
    """``fwdvol mc-price`` on a 12-fixing monthly asian_prompt strip, fig1.

    Why: 12 settlements, so mc carries 12 per-settlement accumulators and
    12 snapshot nodes across a 2-thread pool; run once per drift mode, it
    is where state size, and so memory, matters, and it takes the
    closed-form k^2 route.
    """

    paths: int = 100_000
    steps: int = 120
    threads: int = 2
    name: ClassVar[str] = "strip"
    lazy_setup: ClassVar[str | None] = "closed_form_verification"
    speed_kernel: ClassVar[str] = "mc_block"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = mc_seed(seed)
        self.workdir = workdir
        # Fixing m/12 reads the prompt forward, which settles a month later.
        self.fixings = workdir / "fixings.json"
        schedule = [[m / 12, (m + 1) / 12] for m in range(1, 13)]
        self.fixings.write_text(json.dumps(schedule), encoding="utf-8")

    def preflight(self) -> list[tuple[str, bool]]:
        return []

    def calls(self, threads: int | None = None) -> list[tuple[str, list[str], Path]]:
        threads = threads or self.threads
        out = []
        for mode in ("exact_per_T", "approximate"):
            path = self.workdir / f"strip_{mode}_{threads}.json"
            argv = ["mc-price", "--preset", "fig1", "--payoff", "asian_prompt",
                    "--fixings", str(self.fixings), "--strike", "1.0",
                    "--paths", str(self.paths), "--steps", str(self.steps),
                    "--mode", mode, "--seed", str(self.seed),
                    "--threads", str(threads), "--out", str(path)]
            out.append((mode, argv, path))
        return out

    def check(self, outputs: dict[str, Path]) -> tuple[list[str], float]:
        """Exact and approximate prices agree within 3 combined stderr."""
        exact = _read_json(outputs["exact_per_T"])
        approx = _read_json(outputs["approximate"])
        gap = abs(exact["value"] - approx["value"])
        limit = 3.0 * math.hypot(exact["std_error"], approx["std_error"])
        failures = [] if gap <= limit else [f"exact-approx gap {gap!r} > 3 se {limit!r}"]
        return failures, float(self.paths * self.steps * 2)


WORKLOADS = {w.name: w for w in (Calibrate, DriftStudy, Strip)}

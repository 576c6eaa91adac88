"""Outside-in span tracing of fwdvol's layers.

`Tracer` replaces each function in `TRACED` with a timing wrapper in every
fwdvol module namespace that holds it, so a call is seen whichever import
it goes through; leaving the ``with`` block puts every original back.
Spans stay in memory with the id of the span that caused them.  Threads
of the MC engine's pool open spans with no parent of their own, so their
outermost spans are parented to the innermost span open in the thread
that entered the tracer, which is blocked waiting for the pool.

`layer_metrics` turns the spans of one traced run into the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

import numpy as np

# Public functions timed at each layer boundary, by defining module.
TRACED = (
    "cli.main",
    "calibration.fit",
    "calibration.objective",
    "pricing.smile_table",
    "pricing.implied_vol",
    "charfn.integrate_ab",
    "model.variance_rate",
    "model.integrated_variance",
    "driftfactor.closed_form_verification",
    "driftfactor.drift_factor_result",
    "driftfactor.k_sq_closed_form",
    "driftfactor.k_sq_numeric",
    "mc.price_payoff",
    "mc.drift_error_study",
    "mc.evolve_step",
    "mc.forward_reconstruct",
)

MC_ENTRIES = ("mc.price_payoff", "mc.drift_error_study")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_integrate_ab(args, kwargs, result):
    from fwdvol.charfn import default_ab_steps

    steps = kwargs.get("n_steps")
    if steps is None:
        steps = default_ab_steps(_arg(args, kwargs, 1, "t_e"))
    return {"nodes": int(np.size(_arg(args, kwargs, 0, "theta"))), "steps": int(steps)}


def _note_objective(args, kwargs, result):
    quotes = _arg(args, kwargs, 1, "quotes")
    return {"value": result, "slices": len({(q.t_e, q.T) for q in quotes})}


def _note_mc(args, kwargs, result, payoff=None):
    cfg = _arg(args, kwargs, 1, "cfg")
    if payoff is None:
        # drift_error_study: one snapshot node, one tracked settlement.
        nodes, settlements = 1, 1
    else:
        nodes = len(payoff.fixings) if payoff.kind == "asian_prompt" else 1
        exact = cfg.drift_mode == "exact_per_T"
        settlements = len(cfg.exact_settlements) if exact else 0
    return {"snapshot_bytes": nodes * (4 + settlements) * cfg.n_paths * 8}


# Small facts read from a call's arguments or result.  Spans keep no
# references to the arguments themselves: MC states are megabytes each.
NOTES = {
    "charfn.integrate_ab": _note_integrate_ab,
    "calibration.objective": _note_objective,
    "driftfactor.drift_factor_result": lambda a, k, r: {
        "method": None if r is None else r.method
    },
    "mc.evolve_step": lambda a, k, r: {"cols": int(_arg(a, k, 2, "normals").shape[-1])},
    "mc.price_payoff": lambda a, k, r: _note_mc(a, k, r, _arg(a, k, 0, "payoff")),
    "mc.drift_error_study": _note_mc,
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "error", "note")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.error = None
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records a `Span` per call of each traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, ids, local, note = self.spans, self._ids, self._local, NOTES.get(name)
        root_stack = self._root_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (root_stack[-1] if root_stack else None)
            span = Span(next(ids), parent, name)
            stack.append(span.id)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if note is not None:
                    span.note = note(args, kwargs, result)
                spans.append(span)

        return traced

    def __enter__(self) -> "Tracer":
        import fwdvol.cli  # noqa: F401  (imports every traced module)

        self._local.stack = self._root_stack
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "fwdvol" or key.startswith("fwdvol."))
        ]
        try:
            for name in TRACED:
                module_name, attr = name.split(".")
                original = getattr(sys.modules["fwdvol." + module_name], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that its children's intervals cover."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed by metric name.

    A layer the run never entered reports 0.  ``cache_hits`` and
    ``cache_misses`` are ``drift_factor_result``'s cache statistics summed
    over the run's CLI calls.
    """
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {name: [] for name in TRACED}
    children: dict[int, list[Span]] = {}
    for s in spans:
        named[s.name].append(s)
        children.setdefault(s.parent, []).append(s)

    def kids(s: Span, name: str | None = None) -> list[Span]:
        return [c for c in children.get(s.id, ()) if name is None or c.name == name]

    def self_time(s: Span) -> float:
        return s.duration - _covered(s, kids(s))

    def under(s: Span, name: str) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    objectives = named["calibration.objective"]
    n_obj = len(objectives)
    obj_time = sum(s.duration for s in objectives)

    improving, searched = 0, 0
    for fit in named["calibration.fit"]:
        evals = sorted(kids(fit, "calibration.objective"), key=lambda c: c.start)
        values = [c.note["value"] for c in evals if c.error is None]
        best = values[0] if values else None
        for value in values[1:]:
            searched += 1
            if value < best:
                improving += 1
                best = value
    penalty_slices = sum(
        s.note["slices"] - sum(c.error is None for c in kids(s, "pricing.smile_table"))
        for s in objectives
    )

    ab = named["charfn.integrate_ab"]
    ab_in_obj = [s for s in ab if under(s, "calibration.objective")]
    dfr = named["driftfactor.drift_factor_result"]
    routes = {"closed_form": 0, "numeric": 0, "limit": 0}
    for s in dfr:
        if s.error is not None:
            continue
        method = s.note["method"]
        if method == "numeric" and not kids(s, "driftfactor.k_sq_numeric"):
            method = "limit"
        routes[method] += 1

    evolve = named["mc.evolve_step"]
    path_steps = sum(s.note["cols"] for s in evolve)
    entries = [s for name in MC_ENTRIES for s in named[name]]
    calls = named["cli.main"]
    return {
        "calibration.objective_ms": 1e3 * _ratio(obj_time, n_obj),
        "calibration.fit_self_ms": 1e3
        * _ratio(sum(self_time(s) for s in named["calibration.fit"]), n_obj),
        "calibration.improving_frac": _ratio(improving, searched),
        "calibration.penalty_slices": penalty_slices,
        "charfn.integrate_ab_calls": len(ab),
        "charfn.integrate_ab_ms": 1e3 * _mean(s.duration for s in ab),
        "charfn.rk4_steps_per_eval": _ratio(sum(s.note["steps"] for s in ab_in_obj), n_obj),
        "charfn.theta_nodes": max((s.note["nodes"] for s in ab), default=0),
        "charfn.share_of_objective": _ratio(sum(s.duration for s in ab_in_obj), obj_time),
        "model.variance_rate_calls_per_eval": _ratio(
            sum(under(s, "calibration.objective") for s in named["model.variance_rate"]), n_obj
        ),
        "model.integrated_variance_calls": len(named["model.integrated_variance"]),
        "model.integrated_variance_s": sum(s.duration for s in named["model.integrated_variance"]),
        "pricing.smile_table_self_ms": 1e3
        * _mean(self_time(s) for s in named["pricing.smile_table"]),
        "pricing.implied_vol_calls": len(named["pricing.implied_vol"]),
        "pricing.implied_vol_us": 1e6 * _mean(s.duration for s in named["pricing.implied_vol"]),
        "pricing.tail_errors": sum(
            s.error == "QuadratureTailError" for s in named["pricing.smile_table"]
        ),
        "driftfactor.route_closed_form": routes["closed_form"],
        "driftfactor.route_numeric": routes["numeric"],
        "driftfactor.route_limit": routes["limit"],
        "driftfactor.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "driftfactor.k_sq_ms": 1e3 * _mean(s.duration for s in dfr),
        "mc.evolve_step_calls": len(evolve),
        "mc.evolve_step_ms": 1e3 * _mean(s.duration for s in evolve),
        "mc.ns_per_path_step": 1e9 * _ratio(sum(s.duration for s in evolve), path_steps),
        "mc.sim_self_s": sum(self_time(s) for s in entries),
        "mc.forward_reconstruct_ms": 1e3
        * _mean(s.duration for s in named["mc.forward_reconstruct"]),
        "mc.snapshot_mb": max((s.note["snapshot_bytes"] for s in entries), default=0) / 1e6,
        "cli.overhead_ms": 1e3 * _mean(self_time(s) for s in calls),
    }

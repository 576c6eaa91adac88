"""fwdvol benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload calibrate --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each run imports ``fwdvol`` from the checkout's ``src`` (and refuses any
other copy), generates the workload's input files from ``--seed``, times
the package's set-up in fresh interpreters, then calls the users' entry
point ``fwdvol.cli.main(argv)`` in-process, one workload unit after
another, until ``--seconds`` have passed.  Each unit's time is scaled
to the machine's reference speed by probes of a kernel of the workload's
kind of work around it (see ``speed.py``).  Every call's output is checked by the workload's
oracle.  With ``--trace 1`` the run instead times one
untraced unit and one unit under `tracing.Tracer`, and reports the
per-layer split.  Human-readable lines come first; the last line of
standard output is the JSON result.  Metric names and units are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

# Fresh interpreters timed per run; setup_s is their median.
SETUP_RUNS = 5

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import fwdvol
t1 = time.perf_counter()
if {lazy!r}:
    getattr(fwdvol, {lazy!r})()
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "lazy_s": t2 - t1}}))
"""


class EnvironmentRefused(Exception):
    pass


def load_fwdvol():
    """Import fwdvol from the checkout's src; refuse any other copy."""
    package = SRC / "fwdvol" / "__init__.py"
    if not package.is_file():
        raise EnvironmentRefused(f"no fwdvol package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fwdvol

    if Path(fwdvol.__file__).resolve() != package.resolve():
        raise EnvironmentRefused(f"fwdvol imported from {fwdvol.__file__}, not {package}")
    return fwdvol


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    """Machine, toolchain and code identity of this run."""
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "fwdvol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def measure_setup(lazy_setup: str | None) -> list[dict]:
    """Import time and lazy set-up time in each of SETUP_RUNS fresh interpreters.

    ``lazy_setup`` names the fwdvol function whose first call does the
    workload's one-time set-up, or is None.
    """
    code = SETUP_CODE.format(src=str(SRC), lazy=lazy_setup)
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=ROOT
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Unit:
    """One timed pass over a workload's CLI calls."""

    wall: float = 0.0
    scale: float = 1.0  # speed.scale of the probes around the unit
    attempted: int = 0
    failed: int = 0
    work: float = 0.0
    walls: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


class Runner:
    """Runs a workload's CLI calls in-process and checks their outputs."""

    def __init__(self, workload):
        import fwdvol.cli
        import fwdvol.driftfactor

        self.cli = fwdvol.cli
        # The undecorated lru_cache object, held before any tracer wraps it.
        self.k_sq_cache = fwdvol.driftfactor.drift_factor_result
        self.workload = workload
        self.cache_hits = self.cache_misses = 0

    def call(self, argv: list[str], out: Path) -> str | None:
        """Run one CLI call; return what went wrong, or None."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:
            return "raised\n" + traceback.format_exc()
        finally:
            info = self.k_sq_cache.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
        if code != 0:
            return f"exit {code}: {sink.getvalue().strip()[-400:]}"
        if not out.is_file():
            return f"wrote no {out.name}"
        return None

    def unit(self, threads: int | None = None) -> Unit:
        unit = Unit()
        calls = self.workload.calls(threads)
        for label, argv, out in calls:
            out.unlink(missing_ok=True)
            # A new process starts with an empty k^2 cache; so does each call.
            self.k_sq_cache.cache_clear()
            start = time.perf_counter()
            problem = self.call(argv, out)
            unit.walls[label] = time.perf_counter() - start
            if problem:
                unit.failures.append(f"{label}: {problem}")
            else:
                unit.outputs[label] = out
        unit.wall = sum(unit.walls.values())
        unit.attempted = len(calls)
        unit.failed = len(unit.failures)
        if not unit.failures:
            try:
                problems, unit.work = self.workload.check(unit.outputs)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                # A wrong answer fails every call that produced it.
                unit.failures += problems
                unit.failed = unit.attempted
        return unit


def timed_run(runner: Runner, seconds: float) -> list[Unit]:
    """Units until ``seconds`` have passed, each between two probes of the
    workload's speed kernel."""
    import speed

    kernel = runner.workload.speed_kernel
    units = []
    speed.probe(kernel)  # warm-up: first-call costs of the kernel
    deadline = time.perf_counter() + seconds
    before = speed.probe(kernel)
    while True:
        unit = runner.unit()
        after = speed.probe(kernel)
        unit.scale = speed.scale(kernel, [before, after])
        before = after
        units.append(unit)
        if time.perf_counter() >= deadline:
            return units


def traced_run(runner: Runner, setup: list[dict]) -> tuple[list[Unit], dict[str, float]]:
    from tracing import Tracer, layer_metrics

    workload = runner.workload
    # The first unit of a process tends to run slower; keep it out of the
    # untraced reference that the traced unit is compared with.
    units = [runner.unit(), runner.unit()]
    reference = units[-1]
    threads = getattr(workload, "threads", 1)
    single = None
    if threads > 1:
        single = runner.unit(threads=1)
        units.append(single)
    runner.cache_hits = runner.cache_misses = 0
    with Tracer() as tracer:
        traced = runner.unit()
    units.append(traced)
    if single is not None and not single.failures and not traced.failures:
        # Criterion 10: worker-count independence, bit for bit.
        for label, path in single.outputs.items():
            one = json.loads(path.read_text())
            many = json.loads(traced.outputs[label].read_text())
            if (one["value"], one["std_error"]) != (many["value"], many["std_error"]):
                traced.failures.append(f"{label}: 1-thread and {threads}-thread prices differ")
                traced.failed = traced.attempted

    metrics = layer_metrics(tracer.spans, runner.cache_hits, runner.cache_misses)
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    metrics["driftfactor.verification_s"] = (
        statistics.median(s["lazy_s"] for s in setup) if workload.lazy_setup else 0.0
    )
    walls = reference.walls
    metrics["mc.exact_over_approx"] = (
        walls["exact_per_T"] / walls["approximate"] if "approximate" in walls else 0.0
    )
    metrics["mc.thread_efficiency"] = (
        single.wall / (threads * reference.wall) if single is not None else 0.0
    )
    metrics["trace.run_s"] = traced.wall
    metrics["trace.overhead_s"] = traced.wall - reference.wall
    return units, metrics


def end_to_end(units: list[Unit], setup: list[dict]) -> dict[str, float]:
    """run_s and work_per_s are at the machine's reference speed (see
    speed.py); setup_s is as measured."""
    good = [u for u in units if not u.failures]
    return {
        "setup_s": statistics.median(s["import_s"] + s["lazy_s"] for s in setup),
        "run_s": statistics.median(u.wall * u.scale for u in units),
        "work_per_s": (
            statistics.median(u.work / (u.wall * u.scale) for u in good) if good else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def report(name: str, metrics: dict[str, float], attempted: int, failed: int) -> None:
    """Print this workload's end-to-end metrics, error_rate included, by name and unit."""
    work = "calib_evals_per_s" if name == "calibrate" else "path_steps_per_s"
    rows = [
        ("setup_s", metrics["setup_s"], "s"),
        ("run_s", metrics["run_s"], "s"),
        (f"{work} (work_per_s)", metrics["work_per_s"], "1/s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("error_rate", failed / attempted, f"failed/attempted = {failed}/{attempted}"),
    ]
    print(f"workload {name}:")
    for label, value, unit in rows:
        print(f"  {label:34s} {value:.6g} {unit}")


def run(args, declared: dict) -> int:
    from workloads import WORKLOADS

    fwdvol = load_fwdvol()
    print("env " + json.dumps(environment(), sort_keys=True))
    workload = WORKLOADS[args.workload]()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload.prepare(args.seed, workdir)
        setup = measure_setup(workload.lazy_setup)
        if workload.lazy_setup:
            # Finish the lazy set-up here too, so run_s does not carry it.
            getattr(fwdvol, workload.lazy_setup)()
        runner = Runner(workload)
        if args.trace:
            units, metrics = traced_run(runner, setup)
        else:
            units = timed_run(runner, args.seconds)
            metrics = end_to_end(units, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    preflight = workload.preflight()
    attempted = sum(u.attempted for u in units) + len(preflight)
    failed = sum(u.failed for u in units) + sum(not ok for _, ok in preflight)
    problems = [what for what, ok in preflight if not ok]
    for problem in problems + [f for u in units for f in u.failures]:
        print("FAILED " + problem.replace("\n", "\n    "))
    print("unit walls (s): " + ", ".join(f"{u.wall:.4f}" for u in units))
    if not args.trace:
        print("unit speed scales: " + ", ".join(f"{u.scale:.4f}" for u in units))
    if args.trace:
        for key, value in metrics.items():
            print(f"  {key:36s} {value:.6g} {declared[key]}")
    else:
        report(args.workload, metrics, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One interpreter per workload, so each peak RSS is its own.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                timeout=600,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        group = spec["per_layer"] if args.trace else spec["end_to_end"]
        return run(args, {m["name"]: m["unit"] for m in group})
    except (EnvironmentRefused, OSError) as exc:
        print(f"bench: refusing to run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

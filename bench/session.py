"""One measured child of the benchmark, started as a fresh interpreter.

    python3 bench/session.py setup   WORKLOAD SEED WORK_DIR
    python3 bench/session.py measure WORKLOAD SEED WORK_DIR SECONDS SMOKE REFERENCE_DIR
    python3 bench/session.py trace   WORKLOAD SEED WORK_DIR SECONDS SMOKE REFERENCE_DIR

Every mode imports ``epdtail`` from the checkout's ``src`` and loads the
workload's inputs, then writes ``time.perf_counter()`` (CLOCK_MONOTONIC,
shared with the parent) to ``WORK_DIR/ready.<pid>`` so the parent can time
set-up from before it started the interpreter. ``measure`` then runs units
of the workload through ``epdtail.cli.main`` until SECONDS have passed and
checks their outputs; ``trace`` runs unit 0 traced, untraced and (for
``burr_w1``) with two workers. Both write
``WORK_DIR/<mode>.json`` for ``run.py`` to read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from importlib import resources
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

import epdtail  # noqa: E402
from epdtail import cli, simulate  # noqa: E402
from epdtail.data import load_sample  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_OF, Tracer  # noqa: E402

MIN_UNITS = 2  # measure mode: at least this many timed units per run
HARD_STOP_S = 90.0  # start no unit after this, so a run ends well inside 180 s


def _cpu_seconds() -> float:
    """CPU seconds of this process and its finished children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_unit(w, seed: int, unit: int, work: Path, out: Path, smoke: bool, reference_dir: Path,
             workers: int = 1, tracer=None) -> dict:
    """Run one unit of ``w`` through the CLI and check its output.

    Returns its wall and CPU seconds, its cells and the problems found.
    Unit 0 of the default seed is compared with the reference.
    """
    argv = wl.cli_argv(w, seed, unit, work, out, smoke, workers)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    if code != 0:
        return {"wall": wall, "cpu": cpu, "attempted": 1, "failed": 1,
                "problems": [f"epdtail {argv[0]} exited with {code}"]}
    attempted, failed = wl.count_cells(w, out)
    problems = wl.invariant_problems(w, out)
    if seed == wl.DEFAULT_SEED and unit == 0:
        problems += wl.reference_problems(w, out, wl.reference_path(w, reference_dir))
    return {"wall": wall, "cpu": cpu, "attempted": attempted, "failed": failed, "problems": problems}


def _digest(w, out: Path) -> str:
    h = hashlib.sha256()
    for p in wl.output_files(w, out):
        h.update(p.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(w, seed: int, work: Path, seconds: float, smoke: bool, reference_dir: Path) -> dict:
    out = work / "out.csv"
    units = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(w, seed, len(units), work, out, smoke, reference_dir))
        elapsed = time.perf_counter() - start
        if len(units) >= MIN_UNITS and (elapsed + units[-1]["wall"] / 2 >= seconds or elapsed >= HARD_STOP_S):
            break
    problems = [p for u in units for p in u.pop("problems")]
    return {"units": units, "peak_rss_mb": peak_rss_mb(), "problems": problems}


def _layer_metrics(t: Tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced unit; names follow ``tracer.LAYER_OF``."""
    m: dict[str, float] = {}
    names = [f"{layer}.{fn}" for fn, layer in LAYER_OF.items()
             if fn not in ("bayes_closed_form", "metropolis_sample", "run_study")]
    names += ["bayes.closed_linear", "bayes.closed_profile_map", "bayes.metropolis"]
    for name in names:
        calls = t.calls.get(name, 0)
        m[f"{name}.calls"] = calls
        if name != "data.load_sample":  # reported in ms below
            m[f"{name}.us_per_call"] = 1e6 * t.seconds.get(name, 0.0) / calls if calls else 0.0
    c = t.counts
    fits = t.calls.get("epd.epd_ml_fit", 0)
    m["epd.epd_ml_fit.iterations"] = c["epd.epd_ml_fit.iterations"]
    m["epd.epd_ml_fit.nonconverged"] = c["epd.epd_ml_fit.nonconverged"]
    m["epd.epd_ml_fit.converged_ratio"] = 1.0 - c["epd.epd_ml_fit.nonconverged"] / fits if fits else 0.0
    bayes = m["bayes.closed_linear.calls"] + m["bayes.closed_profile_map.calls"]
    m["bayes.closed_linear.hit_ratio"] = m["bayes.closed_linear.calls"] / bayes if bayes else 0.0
    iters = c["bayes.metropolis.iterations"]
    m["bayes.metropolis.iterations"] = iters
    m["bayes.metropolis.accepted"] = c["bayes.metropolis.accepted"]
    retained = c["bayes.metropolis.retained"]
    m["bayes.metropolis.acceptance"] = c["bayes.metropolis.accepted"] / retained if retained else 0.0
    m["bayes.metropolis.us_per_iter"] = 1e6 * t.seconds.get("bayes.metropolis", 0.0) / iters if iters else 0.0
    m["second_order.resolve_rho.fallbacks"] = c["second_order.resolve_rho.fallbacks"]
    m["data.load_sample.ms"] = 1e3 * t.seconds.get("data.load_sample", 0.0)
    m["simulate.self_s"] = t.self_seconds("simulate.run_study")
    m["cli.self_s"] = t.self_seconds("cli.main")
    m["trace.coverage"] = 1.0 - (m["simulate.self_s"] + m["cli.self_s"]) / wall
    m["trace.errors"] = c["trace.errors"]  # layer calls that raised (a study excludes those cells)
    return m


def trace(w, seed: int, work: Path, seconds: float, smoke: bool, reference_dir: Path) -> dict:
    out = work / "out.csv"
    rounds, units, digests = [], [], set()
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        tracer.install(simulate, cli)
        try:
            traced = run_unit(w, seed, 0, work, out, smoke, reference_dir, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.json")
        digests.add(_digest(w, out))
        plain = run_unit(w, seed, 0, work, out, smoke, reference_dir)
        digests.add(_digest(w, out))
        units += [traced, plain]
        r = _layer_metrics(tracer, traced["wall"])
        r["trace.traced_wall_s"] = traced["wall"]
        r["trace.untraced_wall_s"] = plain["wall"]
        r["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1.0
        if w.pool_check:
            pooled = run_unit(w, seed, 0, work, out, smoke, reference_dir, workers=2)
            digests.add(_digest(w, out))
            units.append(pooled)
            r["simulate.w1_wall_s"] = plain["wall"]
            r["simulate.w2_wall_s"] = pooled["wall"]
            r["simulate.parallel_efficiency"] = plain["wall"] / (2.0 * pooled["wall"])
        else:  # no pooled unit: reported as 0
            r["simulate.w1_wall_s"] = r["simulate.w2_wall_s"] = r["simulate.parallel_efficiency"] = 0.0
        rounds.append(r)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds or elapsed >= HARD_STOP_S:
            break
    problems = [p for u in units for p in u.pop("problems")]
    # traced, untraced and pooled runs of unit 0 must write the same bytes
    if len(digests) > 1:
        problems.append("traced, untraced or --workers 2 output bytes differ")
    exact = {k: v for k, v in rounds[0].items() if k.endswith(EXACT_COUNTS)}
    for r in rounds[1:]:
        if any(r[k] != v for k, v in exact.items()):
            problems.append("traced counts differ between units of the same seed")
    metrics = {k: (rounds[0][k] if k in exact else statistics.median(r[k] for r in rounds))
               for k in rounds[0]}
    return {
        "units": units,
        "rounds": len(rounds),
        "metrics": metrics,
        "problems": problems,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    w = wl.WORKLOADS[name]
    if w.design is None:
        load_sample(wl.input_path(work, seed))
    else:
        resources.files("epdtail").joinpath(f"configs/{w.design}.conf").read_text()
    (work / f"ready.{os.getpid()}").write_text(repr(time.perf_counter()))
    if mode == "setup":
        return 0
    seconds, smoke, reference_dir = float(argv[4]), argv[5] == "1", Path(argv[6])
    result = (measure if mode == "measure" else trace)(w, seed, work, seconds, smoke, reference_dir)
    result["epdtail_file"] = epdtail.__file__
    (work / f"{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

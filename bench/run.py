"""The epdtail benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload burr_w1 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout. It imports ``epdtail`` from ``src``
(nothing needs installing) and leaves its scratch files in ``.bench_work``.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json.
Set-up is timed in three fresh interpreters (two probes and the measured
child): from just before the interpreter starts until ``epdtail`` is
imported and the inputs are loaded; the median is reported. The measured
child then runs units of the workload through ``epdtail.cli.main``, each
with its own seed derived from ``--seed``, until ``--seconds`` have passed
(at least two units) and reports, over all its
units, completed cells per second of wall time, process-plus-children CPU
per completed cell, and peak RSS.

``--trace 1`` measures the per-layer metrics: one unit runs with timing
wrappers around the layer functions (see ``tracer.py``), then the same
unit runs untraced, and for ``burr_w1`` once more with two workers.

Outputs are checked on every run (see ``workloads.py``); a failed check
prints ``"correct": false`` and exits with 1. The thread-count variables
of the environment are recorded and left exactly as found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

SETUP_PROBES = 2  # plus the measured child: three set-up samples per run
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = re.compile(r"(THREADS|OPENBLAS|^OMP_|^MKL_|^BLIS_|VECLIB|NUMEXPR|GOTO)")


def environment() -> dict:
    """What the run found, recorded as found: nothing here is changed."""
    return {
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if THREAD_VARS.search(k)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def spawn(args: list[str], work: Path, timeout: float) -> float:
    """Run ``session.py`` in a fresh interpreter; return its set-up seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "session.py"), *args], cwd=ROOT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:  # timeout or interrupt: stop the child and its pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise SystemExit(f"bench: session {args[0]} exited with {code}")
    ready = work / f"ready.{proc.pid}"
    return float(ready.read_text()) - t0


def end_to_end(work: Path, session_args: list[str]) -> tuple[dict, dict]:
    setup = [spawn(["setup", *session_args[:3]], work, CHILD_TIMEOUT_S) for _ in range(SETUP_PROBES)]
    setup.append(spawn(["measure", *session_args], work, CHILD_TIMEOUT_S))
    result = json.loads((work / "measure.json").read_text())
    units = result["units"]
    done = max(1, sum(u["attempted"] - u["failed"] for u in units))
    # Totals over the timed phase rather than a median of units: the load
    # this benchmark shares a machine with comes and goes over seconds, and
    # a median jumps between those phases where the total averages them.
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "cells_per_s": (done / sum(u["wall"] for u in units), len(units)),
        "cpu_per_cell_ms": (1e3 * sum(u["cpu"] for u in units) / done, len(units)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    return values, result


def per_layer(work: Path, session_args: list[str]) -> tuple[dict, dict]:
    spawn(["trace", *session_args], work, CHILD_TIMEOUT_S)
    result = json.loads((work / "trace.json").read_text())
    return {k: (v, result["rounds"]) for k, v in result["metrics"].items()}, result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny units (2 reps, 2 thresholds, 400 MCMC iterations) for smoke.py")
    p.add_argument("--reference", type=Path, default=None,
                   help="directory of default-seed reference outputs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "epdtail" / "__init__.py").is_file():
        print(f"bench: no epdtail source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = args.reference or BENCH / "reference" / ("smoke" if args.smoke else "")

    env = environment()
    work = ROOT / ".bench_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = wl.WORKLOADS[args.workload]
    if w.design is None:
        wl.write_mcmc_input(wl.input_path(work, args.seed), args.seed)
    session_args = [w.name, str(args.seed), str(work), repr(args.seconds),
                    "1" if args.smoke else "0", str(reference.resolve())]

    measure = per_layer if args.trace else end_to_end
    values, result = measure(work, session_args)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in expected if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics not produced: {missing}")

    problems = result["problems"]
    if Path(result["epdtail_file"]).resolve().parent != (ROOT / "src" / "epdtail").resolve():
        problems.append(f"imported epdtail from {result['epdtail_file']}, not from {ROOT / 'src'}")
    attempted = sum(u["attempted"] for u in result["units"])
    failed = attempted if problems else sum(u["failed"] for u in result["units"])

    print(f"# workload {w.name}: {w.why}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# units {len(result['units'])}, cells attempted {attempted}, failed {failed}")
    for m in expected:
        value, samples = values[m["name"]]
        print(f"{w.name} {m['name']} = {value:.6g} {m['unit']} ({m['better']} is better, n={samples})")
    problems = list(dict.fromkeys(problems))  # units of one run repeat the same finding
    for problem in problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"# ... and {len(problems) - 20} more failed checks")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in expected},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())

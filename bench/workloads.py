"""The benchmark's workloads: their CLI invocations, inputs and output checks.

This module imports no part of ``epdtail``; the orchestrator (``run.py``)
uses it to write inputs and the measured child (``session.py``) uses it
to build argument lists and check what the CLI wrote.

Why these workloads:

- ``burr_w1``: the bundled ``burr_fig2`` design, serial. Heavy Hill bias:
  most Bayes cells take the profile-MAP route and the ML fit is the other
  large share. Its traced run also runs the same unit with
  ``--workers 2``, the only use of the ``simulate`` process pool: the
  output must be byte-identical, and the two walls give
  ``simulate.parallel_efficiency``.
- ``frechet_w1``: the bundled ``frechet_fig1`` design (small k, rho fixed
  at -1), serial. The control: nearly every Bayes cell takes the linear
  route, ``rho`` is not estimated, and per-replication overhead has its
  largest share.
- ``mcmc_cli``: ``epdtail estimate --method mcmc`` with the CLI's default
  chain length on a Burr sample of n=2000. Nearly all its time is the
  Metropolis loop, which no study touches; it also covers file loading
  and CLI output.

A ``--workers 2`` study is not a workload of its own: at this design a
unit of 16 replications took from 10 to 33 s on a 2-CPU machine, because every
pool worker starts an OpenBLAS thread pool that spins on the same cores,
so its throughput cannot repeat within any bound the benchmark may set.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
DESIGN_SEED = 202408  # master seed of both bundled study designs
# A default-seed output matches its reference when every numeric field
# satisfies |got - ref| <= ABS_TOL + REL_TOL * |ref|; names and empty cells
# match exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-9
MAX_EXCLUDED_FRAC = 0.05

# the mcmc_cli input: Burr(xi, rho) with survival (1 + x**(-rho/xi))**(1/rho)
MCMC_N = 2000
BURR_XI, BURR_RHO = 0.75, -0.75
MCMC_TARGET_P = 1e-3  # --x is the true quantile at 1 - MCMC_TARGET_P


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    design: str | None  # bundled study design, or None for the estimate CLI
    reps: int = 0
    pool_check: bool = False  # the traced run adds a unit with --workers 2 (see above)
    smoke_k: tuple[int, int, int] = (0, 0, 1)  # k-min, k-max, k-step of the smoke run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("burr_w1", "burr_fig2 design, serial: profile-MAP and ML fit dominate",
                 "burr_fig2", reps=16, pool_check=True, smoke_k=(90, 95, 5)),
        Workload("frechet_w1", "frechet_fig1 design, serial: linear route, no rho estimate, per-rep overhead",
                 "frechet_fig1", reps=200, smoke_k=(10, 15, 5)),
        Workload("mcmc_cli", "estimate --method mcmc on a Burr file: the Metropolis loop and CLI I/O",
                 None, smoke_k=(100, 200, 100)),
    )
}
MCMC_K = (100, 500, 100)
SMOKE_REPS = 2
SMOKE_MCMC = ("--mcmc-iters", "400", "--burn-in", "100")


def mcmc_x() -> float:
    """True Burr quantile at 1 - MCMC_TARGET_P, far above every threshold used."""
    return (MCMC_TARGET_P ** BURR_RHO - 1.0) ** (-BURR_XI / BURR_RHO)


def write_mcmc_input(path: Path, seed: int) -> None:
    """Burr sample drawn by inverse transform with plain numpy, one value per line."""
    import numpy as np

    u = np.random.default_rng([seed, MCMC_N]).random(MCMC_N)
    s = np.minimum(1.0 - u, np.nextafter(1.0, 0.0))  # survival levels in (0, 1)
    x = (s ** BURR_RHO - 1.0) ** (-BURR_XI / BURR_RHO)
    path.write_text("loss\n" + "\n".join(repr(float(v)) for v in x) + "\n")


def input_path(work: Path, seed: int) -> Path:
    return work / f"burr_n{MCMC_N}_seed{seed}.csv"


def unit_seed(seed: int, unit: int) -> int:
    """Seed of the ``unit``-th unit of a run: every unit of a run gets its own inputs.

    A run then averages its throughput over many replications instead of
    repeating 16 of them; on the Burr design the cost of a unit differed by
    up to 20% between seeds.
    """
    return seed * 1_000_000 + unit


def cli_argv(w: Workload, seed: int, unit: int, work: Path, out: Path, smoke: bool,
             workers: int = 1) -> list[str]:
    """The ``epdtail`` command line of the ``unit``-th unit of work of ``w``."""
    if w.design is not None:
        argv = ["simulate", "--config", w.design,
                "--reps", str(SMOKE_REPS if smoke else w.reps),
                "--seed", str(DESIGN_SEED + unit_seed(seed, unit)),
                "--workers", str(workers),
                "--out", str(out)]
        if smoke:
            argv += ["--k-min", str(w.smoke_k[0]), "--k-max", str(w.smoke_k[1]),
                     "--k-step", str(w.smoke_k[2])]
        return argv
    k = w.smoke_k if smoke else MCMC_K
    argv = ["estimate", str(input_path(work, seed)), "--method", "mcmc", "--rho", "auto",
            "--x", repr(mcmc_x()), "--k-min", str(k[0]), "--k-max", str(k[1]),
            "--k-step", str(k[2]), "--seed", str(unit_seed(seed, unit)), "--out", str(out)]
    return argv + list(SMOKE_MCMC) if smoke else argv


def output_files(w: Workload, out: Path) -> list[Path]:
    """The data files one unit writes."""
    return [out, out.with_suffix(".json")] if w.design is not None else [out]


def reference_path(w: Workload, reference_dir: Path) -> Path:
    return reference_dir / (f"{w.design}.json" if w.design is not None else f"{w.name}.csv")


# ---------------------------------------------------------------- reading outputs

def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_cells(w: Workload, out: Path) -> tuple[int, int]:
    """(attempted, failed) cells of one unit, read from its output.

    A study cell is one (rep, estimator, k) estimate; failed cells are the
    ones the study excluded. An estimate cell is one (estimator, k) value
    (hill, ML, Bayes per row); a row with an error fails all three.
    """
    if w.design is not None:
        payload = json.loads(out.with_suffix(".json").read_text())
        cfg = payload["config"]
        attempted = cfg["reps"] * len(cfg["estimators"]) * len(cfg["k_grid"])
        return attempted, sum(int(r["excluded"]) for r in payload["rows"])
    rows = _read_csv(out)
    return 3 * len(rows), 3 * sum(1 for r in rows if r["error"])


# ---------------------------------------------------------------- checks

def _close(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref)


def _field_matches(got, ref) -> bool:
    try:
        return _close(float(got), float(ref))
    except (TypeError, ValueError):  # names, empty cells, missing values
        return got == ref


def invariant_problems(w: Workload, out: Path) -> list[str]:
    """Checks that hold on every seed."""
    problems = []
    if w.design is not None:
        payload = json.loads(out.with_suffix(".json").read_text())
        if payload["exclusion_fraction"] > MAX_EXCLUDED_FRAC:
            problems.append(f"exclusion fraction {payload['exclusion_fraction']} above {MAX_EXCLUDED_FRAC}")
        for r in payload["rows"]:
            for total, bias, var in (("mse", "bias", "variance"), ("rel_mse", "rel_bias", "rel_variance")):
                if any(math.isnan(r[f]) for f in (total, bias, var)):
                    continue
                expected = r[bias] ** 2 + r[var]
                if abs(r[total] - expected) > 1e-12 * max(1.0, abs(expected)):
                    problems.append(f"{r['estimator']} k={r['k']}: {total} != {bias}**2 + {var}")
    else:
        for r in _read_csv(out):
            if r["error"]:
                problems.append(f"k={r['k']}: error column reads {r['error']!r}")
    return problems


def reference_problems(w: Workload, out: Path, reference: Path) -> list[str]:
    """Compare the fields the reference holds; columns added later are ignored."""
    if not reference.is_file():
        return [f"reference {reference} is missing"]
    if w.design is not None:
        got = json.loads(out.with_suffix(".json").read_text())["rows"]
        ref = json.loads(reference.read_text())["rows"]
    else:
        got, ref = _read_csv(out), _read_csv(reference)
    if len(got) != len(ref):
        return [f"{len(got)} rows, reference has {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        for key, value in r.items():
            if key not in g or not _field_matches(g[key], value):
                problems.append(f"row {i} field {key}: got {g.get(key)!r}, reference {value!r}")
    return problems[:20]


def write_reference(w: Workload, out: Path, reference: Path) -> None:
    """Store the default-seed output of ``w`` as its reference."""
    reference.parent.mkdir(parents=True, exist_ok=True)
    if w.design is not None:
        rows = json.loads(out.with_suffix(".json").read_text())["rows"]
        lines = ",\n".join(json.dumps(r, sort_keys=True) for r in rows)
        reference.write_text('{"rows": [\n' + lines + "\n]}\n")
    else:
        reference.write_bytes(out.read_bytes())

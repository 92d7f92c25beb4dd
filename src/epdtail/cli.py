"""Command-line front end: estimation on data files, studies, limit curves.

Every command is a pure function of its inputs, flags and seed: identical
invocations produce byte-identical output files. Each output is
accompanied by a ``<out>.manifest.json`` recording the resolved
configuration, seeds, library version and input digest, and the wall and
CPU seconds of each phase of the command (the manifest carries the
timestamp and the timings, so the data files stay reproducible).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import AsymptoticRegime, asym_mean, asym_var, limit_mse, mse_opt, zeta_opt
from .bayes import MCMCConfig, hpd_interval
from .data import DataFormatError, _open_text, load_sample
from .second_order import NonEstimableError, resolve_rho
from .simulate import (MCStudyConfig, burr, estimate_cells, frechet, k_range, loggamma, run_study, study_payload,
                       study_rows)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")  # Python 3.13's: -1e-3 is a value, not a flag

    def error(self, message: str) -> None:  # argparse would exit(2); we map to 1
        raise UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return ""
    if v == 0.0:
        v = 0.0  # normalize negative zero
    return f"{v:.12g}"


def _jnum(value):
    # the number ``_fmt`` writes, negative zero as 0.0; None where JSON has no token (NaN, infinity)
    if value is None or not np.isfinite(v := float(value)):
        return None
    return float(_fmt(v))


def _write_json(path: Path, payload) -> None:
    """Write ``payload`` as standard JSON: a NaN or infinity in it is a ValueError, not a token."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _clock() -> tuple[float, float]:
    """Wall seconds, and the CPU seconds of this process and of its children that have ended."""
    t = os.times()
    return time.perf_counter(), time.process_time() + t.children_user + t.children_system


@contextmanager
def _phase(phases: dict, name: str):
    """Record the wall and CPU seconds of the block as ``phases[name]``, for the manifest."""
    wall, cpu = _clock()
    yield
    end_wall, end_cpu = _clock()
    phases[name] = {"wall_s": end_wall - wall, "cpu_s": end_cpu - cpu}


def _write_manifest(out: Path, args: argparse.Namespace, phases: dict, seed: int | None = None,
                    data: str | None = None, config: dict | None = None, **resolved) -> None:
    """Write ``<out>.manifest.json``: the command, the settings it ran with, provenance and timings.

    The settings are ``config`` if given, else every parsed flag (less
    argparse's dispatch fields) updated by ``resolved``, so a new flag is
    recorded with no edit here. ``data`` is the input file to digest.
    ``phases`` maps each phase of the command to its ``_phase`` timings.
    """
    if config is None:
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "func")} | resolved
    # a non-finite flag, such as --x inf, is recorded as its string
    config = {key: str(value) if isinstance(value, float) and not np.isfinite(value) else value
              for key, value in config.items()}
    manifest = {
        "command": args.command, "config": config, "seed": seed,
        "input_digest": hashlib.sha256(Path(data).read_bytes()).hexdigest() if data else None,
        "version": __version__, "timestamp": datetime.now(timezone.utc).isoformat(), "phases": phases,
    }
    _write_json(out.with_name(out.name + ".manifest.json"), manifest)


def _parse_rho_flag(text: str) -> tuple[str, float | None]:
    if text == "auto":
        return "auto", None
    if text.startswith("fixed:"):
        try:
            return "fixed", float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --rho value {text!r}") from None
    raise UsageError(f"--rho must be 'auto' or 'fixed:<value>', got {text!r}")


def _parse_dist(text: str):
    kind, *parts = text.split(":")
    try:
        args = [float(p) for p in parts]
        if kind == "frechet" and len(args) == 1:
            return frechet(args[0])
        if kind == "burr" and len(args) == 2:
            return burr(args[0], args[1])
        if kind == "loggamma" and len(args) in (0, 2):
            return loggamma(*args) if args else loggamma()
    except ValueError as exc:
        raise UsageError(f"bad distribution {text!r}: {exc}") from None
    raise UsageError(
        f"unknown distribution {text!r}; supported: frechet:<xi>, "
        "burr:<xi>:<rho>, loggamma[:<shape>:<rate>]"
    )


# ---------------------------------------------------------------- estimate

def cmd_estimate(args: argparse.Namespace) -> int:
    if args.column is not None and args.column < 0:
        raise UsageError(f"--column must be >= 0, got {args.column}")
    phases: dict = {}
    with _phase(phases, "load"):
        sample = load_sample(args.data, column=args.column)
    n = sample.n
    bounds = {key: value for key in ("k_min", "k_max", "k_step")
              if (value := getattr(args, key)) is not None}
    try:
        k_values = k_range(n, **bounds)
    except ValueError as exc:  # a k step below 1
        raise UsageError(str(exc)) from None
    k_min, k_max, k_step = k_values.start, k_values.stop - 1, k_values.step
    if k_min < 10 or k_max > n - 1 or not k_values:
        raise UsageError(f"bad k grid [{k_min}, {k_max}] step {k_step} for n={n}")

    rho_mode, rho_fixed = _parse_rho_flag(args.rho)
    with _phase(phases, "rho"):
        if rho_mode == "auto":
            try:
                rho, rho_source = resolve_rho(sample, k1=args.rho_k1, tuning=args.rho_tuning)
            except ValueError as exc:  # the checks of --rho-k1 and --rho-tuning
                raise UsageError(f"--rho-k1 or --rho-tuning: {exc}") from None
        else:
            if not -np.inf < rho_fixed < 0:
                raise UsageError("a fixed rho must be finite and negative")
            rho, rho_source = rho_fixed, "user"

    if args.x is not None and np.isnan(args.x):
        raise UsageError("--x must be a number, got nan")
    if not 0.0 < args.alpha < 1.0:  # under every method, so that NaN fails too
        raise UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
    mcmc = None
    if args.method == "mcmc":
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        try:
            mcmc = MCMCConfig(args.mcmc_iters, args.burn_in)
        except ValueError as exc:
            raise UsageError(f"--mcmc-iters and --burn-in: {exc}") from None
        if mcmc.iterations - mcmc.burn_in < 2:
            raise UsageError("an HPD interval needs at least 2 draws after --burn-in")
    names = ("hill", "epd_ml", "bayes_mcmc" if mcmc else "bayes_closed")
    header = ["k", "threshold", "hill_xi", "ml_xi", "ml_delta", "bayes_xi",
              "bayes_delta", "rho", "tau", "sigma2"]
    if args.x is not None:
        header += ["p_weissman", "p_epd_ml", "p_bayes"]
    if mcmc:
        header += ["hpd_lower", "hpd_upper"]
    header.append("error")

    rows: list[list] = []
    values = sample.values[None]  # one lane
    with _phase(phases, "estimate"):
        for k in k_values:
            cells = estimate_cells(values, [rho], [(args.seed,)], k, names, args.x, mcmc)
            (_, ml, bayes), chain = cells.estimates[0], cells.chains[0]
            row: list = [k, cells.threshold[0], cells.hill[0], *ml[:2], *bayes[:2], rho, cells.tau[0],
                         cells.sigma2[0]]
            if args.x is not None:  # a probability below the threshold is NaN, written blank
                row += list(cells.estimates[0, :, 2])
            if mcmc:
                row += list(hpd_interval(chain.draws[:, 0], args.alpha)) if chain is not None else [None, None]
            below = args.x is not None and args.x < cells.threshold[0]
            # the cell as it is: a failed estimator's NaNs are blank, and the first failure is named
            rows.append(row + [next(iter(cells.errors[0].values()), "x_below_threshold" if below else "")])

    out = Path(args.out)
    with _phase(phases, "write"):
        if args.format == "csv":
            _write_csv(out, header, rows)
        else:
            payload = {
                "columns": header,
                "rows": [
                    [v if isinstance(v, (str, int)) else _jnum(v) for v in row] for row in rows
                ],
                "rho_source": rho_source,
            }
            _write_json(out, payload)
    _write_manifest(out, args, phases, seed=args.seed, data=args.data, k_min=k_min, k_max=k_max,
                    k_step=k_step, rho_source=rho_source)
    return EXIT_OK


# ---------------------------------------------------------------- simulate

# the settings of a study: each key is the name of its flag and of its
# config-file key, with the type of its value and the MCStudyConfig field it
# fills; the k bounds fill no field of their own, they build k_grid
_CONFIG_KEYS = {
    "dist": (str, "dist"), "n": (int, "n"), "reps": (int, "reps"),
    "k-min": (int, None), "k-max": (int, None), "k-step": (int, None),
    "rho": (str, "rho_mode"), "estimators": (str, "estimators"),
    "target-p": (float, "target_p"), "seed": (int, "master_seed"),
    "smooth-window": (int, "smooth_window"), "mcmc-iters": (int, "mcmc_iterations"),
    "burn-in": (int, "mcmc_burn_in"),
}


def _load_config_file(name: str) -> dict[str, object]:
    path = Path(name)
    if path.is_file():
        lines = _open_text(path)
    else:
        candidate = resources.files("epdtail").joinpath(f"configs/{name}.conf")
        if candidate.is_file():
            lines = _open_text(candidate.read_bytes())
        else:
            raise DataFormatError(f"config file {name!r} not found (and not a bundled name)")
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise DataFormatError(f"bad config line {lineno}: {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip().replace("_", "-"), value.strip()
        if key not in _CONFIG_KEYS:
            raise DataFormatError(f"bad config line {lineno}: unknown key {key!r}")
        cast = _CONFIG_KEYS[key][0]
        try:
            values[key] = cast(value)
        except ValueError:
            raise DataFormatError(
                f"bad config line {lineno}: {key!r} needs a value of type "
                f"{cast.__name__}, got {value!r}"
            ) from None
    return values


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    # a flag wins over the file; a setting given nowhere keeps its MCStudyConfig default
    given = _load_config_file(args.config) if args.config else {}
    given.update({key: value for key in _CONFIG_KEYS
                  if (value := getattr(args, key.replace("-", "_"))) is not None})
    if "dist" not in given:
        raise UsageError("a distribution is required (--dist or config file)")
    given["dist"] = _parse_dist(given["dist"])
    if "rho" in given:
        rho_mode, rho_fixed = _parse_rho_flag(given["rho"])
        if rho_mode == "fixed" and rho_fixed != -1.0:
            raise UsageError("studies support --rho auto or fixed:-1")
        given["rho"] = "fraga" if rho_mode == "auto" else "fixed_minus_one"
    if "estimators" in given:
        given["estimators"] = tuple(given["estimators"].split(","))
    fields = {f: given[key] for key, (_, f) in _CONFIG_KEYS.items() if f and key in given}
    bounds = {key.replace("-", "_"): given[key]
              for key, (_, f) in _CONFIG_KEYS.items() if not f and key in given}
    try:
        if bounds:
            fields["k_grid"] = tuple(k_range(fields.get("n", MCStudyConfig.n), **bounds))
        cfg = MCStudyConfig(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    phases: dict = {}
    with _phase(phases, "study"):
        result = run_study(cfg, workers=args.workers)

    out = Path(args.out)
    with _phase(phases, "write"):
        rows = study_rows(result)
        _write_csv(out, list(rows[0]), [list(r.values()) for r in rows])
        payload = study_payload(result)
        _write_json(out.with_suffix(".json"), payload)
    _write_manifest(out, args, phases, seed=cfg.master_seed, config=payload["config"])
    print(f"study written to {out} ({len(rows)} rows, "
          f"{result.exclusion_fraction:.2%} cells excluded)")
    return EXIT_OK


# ---------------------------------------------------------------- asymptotics

def cmd_asymptotics(args: argparse.Namespace) -> int:
    stop = args.lambda_max + 1e-12
    # written so that NaN fails every check; lambda is nonnegative and np.arange gets at most 10**6 rows
    if not (args.lambda_max >= args.lambda_min >= 0 and args.lambda_step > 0
            and (stop - args.lambda_min) / args.lambda_step <= 10**6):
        raise UsageError("bad lambda grid")
    if not (0 < args.xi < np.inf and -np.inf < args.rho < 0):
        raise UsageError("need xi > 0 and rho < 0")
    lams = np.arange(args.lambda_min, stop, args.lambda_step)
    header = ["lambda", "mse_hill", "mse_ml", "mse_opt", "bias_opt", "var_opt"]
    rows = []
    phases: dict = {}
    with _phase(phases, "curves"):
        for lam in lams:
            lam = float(lam)
            zeta = zeta_opt(args.xi, args.rho, lam)
            regime = AsymptoticRegime(xi=args.xi, rho=args.rho, lam=lam, zeta=zeta)
            rows.append([
                lam,
                limit_mse("hill", args.xi, args.rho, lam),
                limit_mse("epd_ml", args.xi, args.rho, lam),
                mse_opt(args.xi, args.rho, lam),
                asym_mean(regime),
                asym_var(regime),
            ])
    out = Path(args.out)
    with _phase(phases, "write"):
        _write_csv(out, header, rows)
    _write_manifest(out, args, phases)
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def build_parser() -> _Parser:
    parser = _Parser(prog="epdtail", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate tail index and tail probabilities from a data file")
    p_est.add_argument("data", help="CSV or plain-text file of positive observations")
    p_est.add_argument("--column", type=int, default=None)
    p_est.add_argument("--k-min", type=int, default=None)
    p_est.add_argument("--k-max", type=int, default=None)
    p_est.add_argument("--k-step", type=int, default=None)
    p_est.add_argument("--rho", default="auto", help="auto | fixed:<value>")
    p_est.add_argument("--rho-k1", type=int, default=None)
    p_est.add_argument("--rho-tuning", type=float, default=0.0)
    p_est.add_argument("--method", choices=("closed", "mcmc"), default="closed")
    p_est.add_argument("--mcmc-iters", type=int, default=MCMCConfig.iterations)
    p_est.add_argument("--burn-in", type=int, default=MCMCConfig.burn_in)
    p_est.add_argument("--alpha", type=float, default=0.05)
    p_est.add_argument("--x", type=float, default=None, help="tail level for P(X > x) columns")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--out", default="estimates.csv")
    p_est.add_argument("--format", choices=("csv", "json"), default="csv")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a replicated estimation study")
    p_sim.add_argument("--config", default=None,
                       help="config file path or bundled name (burr_fig2, frechet_fig1)")
    for key, (cast, _) in _CONFIG_KEYS.items():
        p_sim.add_argument(f"--{key}", type=cast, default=None,
                           help="auto | fixed:-1" if key == "rho" else None)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", default="study.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_asy = sub.add_parser("asymptotics", help="emit limiting MSE curves over a lambda grid")
    p_asy.add_argument("--xi", type=float, required=True)
    p_asy.add_argument("--rho", type=float, required=True)
    p_asy.add_argument("--lambda-min", type=float, default=0.0)
    p_asy.add_argument("--lambda-max", type=float, default=5.0)
    p_asy.add_argument("--lambda-step", type=float, default=0.1)
    p_asy.add_argument("--out", default="asymptotics.csv")
    p_asy.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. the draw array of an enormous --mcmc-iters
        detail = str(exc) or "MemoryError"
        print(f"usage error: not enough memory for the requested run ({detail})", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonEstimableError, ArithmeticError, RuntimeError) as exc:  # among them StudyError, ClosedFormError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())

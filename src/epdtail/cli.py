"""Command-line front end: estimation on data files, studies, limit curves.

Every command is a pure function of its inputs, flags and seed: identical
invocations produce byte-identical output files. Each output is
accompanied by a ``<out>.manifest.json`` recording the resolved
configuration, seeds, library version and input digest (the manifest
carries the timestamp so the data files stay reproducible).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import AsymptoticRegime, asym_mean, asym_var, limit_mse, mse_opt, zeta_opt
from .bayes import (
    BayesEstimate,
    ClosedFormError,
    MCMCConfig,
    bayes_closed_form,
    bayes_tail_prob,
    hpd_interval,
    metropolis_sample,
    posterior_mode,
    prior_variance,
)
from .classical import hill, weissman_tail_prob
from .data import DataFormatError, excesses, load_sample
from .epd import epd_ml_fit, epd_tail_prob
from .second_order import NonEstimableError, resolve_rho, tau_hat
from .simulate import (
    MCStudyConfig,
    StudyError,
    burr,
    frechet,
    k_range,
    loggamma,
    run_study,
    study_payload,
    study_rows,
)

__all__ = ["main", "RunManifest"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); we map to 1
        raise UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every output file."""

    command: str
    config: dict
    seed: int | None
    input_digest: str | None
    version: str = __version__
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def write(self, out_path: Path) -> None:
        path = out_path.with_name(out_path.name + ".manifest.json")
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


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
    if value is None:
        return None
    v = float(value)
    if np.isnan(v):
        return None
    return float(f"{v:.12g}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    sample = load_sample(args.data, column=args.column)
    n = sample.n
    k_min = args.k_min if args.k_min is not None else 10
    k_max = args.k_max if args.k_max is not None else max(k_min, n - 10)
    k_step = args.k_step if args.k_step is not None else 5
    if k_min < 10 or k_max > n - 1 or k_step < 1 or k_min > k_max:
        raise UsageError(f"bad k grid [{k_min}, {k_max}] step {k_step} for n={n}")
    k_values = list(range(k_min, k_max + 1, k_step))

    rho_mode, rho_fixed = _parse_rho_flag(args.rho)
    if rho_mode == "auto":
        rho, rho_source = resolve_rho(sample, k1=args.rho_k1, tuning=args.rho_tuning)
    else:
        if not rho_fixed < 0:
            raise UsageError("a fixed rho must be negative")
        rho, rho_source = rho_fixed, "user"

    use_mcmc = args.method == "mcmc"
    if use_mcmc:
        if not 0.0 < args.alpha < 1.0:
            raise UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
        try:
            mcmc = MCMCConfig(args.mcmc_iters, args.burn_in)
        except ValueError as exc:
            raise UsageError(f"--mcmc-iters and --burn-in: {exc}") from None
    header = ["k", "threshold", "hill_xi", "ml_xi", "ml_delta", "bayes_xi",
              "bayes_delta", "rho", "tau", "sigma2"]
    if args.x is not None:
        header += ["p_weissman", "p_epd_ml", "p_bayes"]
    if use_mcmc:
        header += ["hpd_lower", "hpd_upper"]
    header.append("error")

    rows: list[list] = []
    for k in k_values:
        e = excesses(sample, k)
        h = hill(e).xi
        row: list = [k, e.threshold, h]
        note = ""
        try:
            tau = tau_hat(rho, h)
            sigma2 = prior_variance(k, n, rho)
            fit = epd_ml_fit(e, tau)
            if use_mcmc:
                seed = int(np.random.SeedSequence((args.seed, k)).generate_state(1)[0])
                chain = metropolis_sample(e, tau, sigma2, replace(mcmc, seed=seed))
                xi_b, delta_b = posterior_mode(chain)
                hpd = hpd_interval(chain.draws[:, 0], args.alpha)
                best = BayesEstimate(xi=xi_b, delta=delta_b, solver="mcmc")
            else:
                best = bayes_closed_form(e, tau, sigma2)
            row += [fit.params.xi, fit.params.delta, best.xi, best.delta, rho, tau, sigma2]
            if args.x is not None:
                if args.x < e.threshold:
                    row += [None, None, None]
                    note = "x_below_threshold"
                else:
                    row += [
                        weissman_tail_prob(sample, k, args.x, h),
                        epd_tail_prob(sample, k, args.x, fit.params),
                        bayes_tail_prob(sample, k, args.x, best, tau),
                    ]
            if use_mcmc:
                row += list(hpd)
        except (NonEstimableError, ClosedFormError, RuntimeError, ValueError) as exc:
            pad = len(header) - len(row) - 1
            row += [None] * pad
            note = type(exc).__name__
        row.append(note)
        rows.append(row)

    out = Path(args.out) if args.out else Path("estimates.csv")
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
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    RunManifest(
        command="estimate",
        config={
            "data": str(args.data), "column": args.column, "k_min": k_min,
            "k_max": k_max, "k_step": k_step, "rho": args.rho,
            "rho_source": rho_source, "method": args.method, "x": args.x,
            "alpha": args.alpha, "mcmc_iters": args.mcmc_iters,
            "burn_in": args.burn_in, "format": args.format,
        },
        seed=args.seed,
        input_digest=_digest(Path(args.data)),
    ).write(out)
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
        text = path.read_text()
    else:
        candidate = resources.files("epdtail").joinpath(f"configs/{name}.conf")
        if candidate.is_file():
            text = candidate.read_text()
        else:
            raise DataFormatError(f"config file {name!r} not found (and not a bundled name)")
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            fields["k_grid"] = k_range(fields.get("n", MCStudyConfig.n), **bounds)
        cfg = MCStudyConfig(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    result = run_study(cfg, workers=args.workers)

    out = Path(args.out) if args.out else Path("study.csv")
    rows = study_rows(result)
    _write_csv(out, list(rows[0]), [list(r.values()) for r in rows])
    payload = study_payload(result)
    out.with_suffix(".json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    RunManifest(
        command="simulate", config=payload["config"], seed=cfg.master_seed, input_digest=None,
    ).write(out)
    print(f"study written to {out} ({len(rows)} rows, "
          f"{result.exclusion_fraction:.2%} cells excluded)")
    return EXIT_OK


# ---------------------------------------------------------------- asymptotics

def cmd_asymptotics(args: argparse.Namespace) -> int:
    # written so that NaN fails every check
    if not (args.lambda_max >= args.lambda_min and args.lambda_step > 0):
        raise UsageError("bad lambda grid")
    if not (args.xi > 0 and args.rho < 0):
        raise UsageError("need xi > 0 and rho < 0")
    lams = np.arange(args.lambda_min, args.lambda_max + 1e-12, args.lambda_step)
    header = ["lambda", "mse_hill", "mse_ml", "mse_opt", "bias_opt", "var_opt"]
    rows = []
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
    out = Path(args.out) if args.out else Path("asymptotics.csv")
    _write_csv(out, header, rows)
    RunManifest(
        command="asymptotics",
        config={"xi": args.xi, "rho": args.rho, "lambda_min": args.lambda_min,
                "lambda_max": args.lambda_max, "lambda_step": args.lambda_step},
        seed=None,
        input_digest=None,
    ).write(out)
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
    p_est.add_argument("--out", default=None)
    p_est.add_argument("--format", choices=("csv", "json"), default="csv")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a replicated estimation study")
    p_sim.add_argument("--config", default=None,
                       help="config file path or bundled name (burr_fig2, frechet_fig1)")
    for key, (cast, _) in _CONFIG_KEYS.items():
        p_sim.add_argument(f"--{key}", type=cast, default=None,
                           help="auto | fixed:-1" if key == "rho" else None)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_asy = sub.add_parser("asymptotics", help="emit limiting MSE curves over a lambda grid")
    p_asy.add_argument("--xi", type=float, required=True)
    p_asy.add_argument("--rho", type=float, required=True)
    p_asy.add_argument("--lambda-min", type=float, default=0.0)
    p_asy.add_argument("--lambda-max", type=float, default=5.0)
    p_asy.add_argument("--lambda-step", type=float, default=0.1)
    p_asy.add_argument("--out", default=None)
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
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (StudyError, ClosedFormError, NonEstimableError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())

from __future__ import annotations

import csv
import importlib
import importlib.util
import json
import math
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import epdtail as et
import epdtail.simulate as sim
from epdtail.bayes import _chain
from epdtail.cli import _CONFIG_KEYS, _fmt, build_parser, main
from oracles import stack


def _pareto_grid_file(tmp_path: Path, n=200, xi=1.0) -> Path:
    # deterministic quantile grid of the strict Pareto law
    i = np.arange(1, n + 1)
    values = (1.0 - i / (n + 1.0)) ** (-xi)
    path = tmp_path / "pareto.csv"
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return path


def _burr_file(tmp_path: Path) -> Path:
    # a Burr(0.75, -0.75) sample of 2 000, the seed-0 input of ``estimate --method mcmc`` in the bench
    u = np.random.default_rng([0, 2000]).random(2000)
    x = (np.minimum(1.0 - u, np.nextafter(1.0, 0.0)) ** -0.75 - 1.0) ** 1.0
    path = tmp_path / "burr.csv"
    path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    return path


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _strict_json(path: Path):
    """The JSON in ``path``, which must not hold NaN, Infinity or -Infinity."""
    def reject(token):
        raise ValueError(f"{path.name} holds the nonstandard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestEstimate:
    def test_hill_column_matches_hand_formula(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        code = main(["estimate", str(data), "--k-min", "100", "--k-max", "100",
                     "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert len(rows) == 1
        sample = et.load_sample(data)
        expected = np.mean(np.log(sample.values[-100:] / sample.threshold(100)))
        assert float(rows[0]["hill_xi"]) == pytest.approx(expected, rel=1e-10)
        assert rows[0]["error"] == ""

    def test_x_below_threshold_marks_row_and_continues(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        sample = et.load_sample(data)
        thr_small_k = float(sample.values[sample.n - 11])   # threshold at k=10
        code = main(["estimate", str(data), "--k-min", "10", "--k-max", "110",
                     "--k-step", "100", "--x", f"{thr_small_k * 0.9}",
                     "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0]["error"] == "x_below_threshold"
        assert rows[0]["p_weissman"] == ""
        assert rows[1]["error"] == ""
        assert float(rows[1]["p_weissman"]) > 0

    @pytest.mark.parametrize("method", ["closed", "mcmc"])
    def test_underflowing_prior_variance_marks_rows_and_continues(self, tmp_path, method):
        # at rho = -400 the prior variance (k/n)**800 underflows to 0.0: the chain fails there,
        # and the closed form gives its strong-prior limit, Hill with a delta of 0
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        code = main(["estimate", str(data), "--rho", "fixed:-400", "--method", method,
                     "--mcmc-iters", "400", "--burn-in", "100",
                     "--k-min", "20", "--k-max", "50", "--k-step", "30", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert all(r["sigma2"] == "0" for r in rows) and len(rows) == 2
        if method == "closed":
            assert all(not r["error"] and r["bayes_xi"] == r["hill_xi"] and r["bayes_delta"] == "0" for r in rows)
        else:
            assert [r["error"] for r in rows] == ["ValueError", "ValueError"]
            assert all(r["hill_xi"] and not r["bayes_xi"] for r in rows)

    @pytest.mark.parametrize("method", ["closed", "mcmc"])
    def test_tau_that_overflows_marks_rows_and_continues(self, tmp_path, method):
        # at rho = -1e308, tau = rho / Hill overflows to -inf where Hill is below 1
        data = _pareto_grid_file(tmp_path, xi=0.5)
        out = tmp_path / "est.csv"
        code = main(["estimate", str(data), "--rho", "fixed:-1e308", "--method", method,
                     "--mcmc-iters", "400", "--burn-in", "100",
                     "--k-min", "20", "--k-max", "50", "--k-step", "30", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert [r["error"] for r in rows] == ["ValueError", "ValueError"]
        assert all(0 < float(r["hill_xi"]) < 1 and not r["ml_xi"] and not r["bayes_xi"] and not r["tau"]
                   for r in rows)

    @pytest.mark.parametrize("method", ["closed", "mcmc"])
    def test_a_failed_bayes_estimate_keeps_the_ml_fit(self, tmp_path, method):
        # a Burr(0.75, -0.75) sample of 2 000 at k = 100 and rho = -400: tau is -507.4 and the
        # prior variance underflows to 0, so only the chain fails; the row keeps the ML fit, tau,
        # sigma2 and the probabilities of the estimators that did not fail. The closed form gives
        # its strong-prior limit there: Hill, a delta of 0 and Weissman's probability
        data, out = _burr_file(tmp_path), tmp_path / "est.csv"
        assert main(["estimate", str(data), "--rho", "fixed:-400", "--method", method,
                     "--x", repr((1e-3 ** -0.75 - 1.0) ** 1.0), "--mcmc-iters", "400", "--burn-in", "100",
                     "--k-min", "100", "--k-max", "100", "--out", str(out)]) == 0
        (row,) = _read_rows(out)
        sample = et.load_sample(data)
        tau = -400.0 / (float(np.add.reduce(np.log(sample.values[:-101:-1] / sample.threshold(100)))) / 100)
        assert [row[c] for c in ("ml_xi", "ml_delta", "rho", "tau", "sigma2")] == [
            "0.786305258293", "-0.00197068528684", "-400", _fmt(tau), "0"]
        assert row["hill_xi"] and row["p_weissman"] and row["p_epd_ml"]
        if method == "closed":
            assert [row[c] for c in ("bayes_xi", "bayes_delta", "p_bayes", "error")] == [
                row["hill_xi"], "0", row["p_weissman"], ""]
        else:
            blank = ["bayes_xi", "bayes_delta", "p_bayes", "hpd_lower", "hpd_upper"]
            assert [row[c] for c in blank] == [""] * len(blank) and row["error"] == "ValueError"

    def test_json_writes_a_zero_delta_as_zero(self, tmp_path):
        # the strong-prior limit's delta is -0.0 where the system's right-hand side is negative, as
        # at k = 800 of this sample; the CSV writes 0 there, and the JSON wrote -0.0
        data, out = _burr_file(tmp_path), tmp_path / "est.json"
        assert main(["estimate", str(data), "--rho", "fixed:-400", "--format", "json",
                     "--k-min", "700", "--k-max", "850", "--k-step", "50", "--out", str(out)]) == 0
        payload = _strict_json(out)
        column = payload["columns"].index("bayes_delta")
        deltas = [row[column] for row in payload["rows"]]
        assert deltas == [0.0] * 4 and [math.copysign(1.0, d) for d in deltas] == [1.0] * 4

    def test_rerun_is_byte_identical(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["estimate", str(data), "--k-min", "20", "--k-max", "60",
                "--method", "mcmc", "--mcmc-iters", "800", "--burn-in", "200",
                "--seed", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_chain_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # --mcmc-iters 1000000000000 asks the chain for a 14.6 TiB draw array
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(sim, "_chain", out_of_memory)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(_pareto_grid_file(tmp_path)), "--method", "mcmc",
                     "--mcmc-iters", "1000000000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("usage error: not enough memory for the requested run "
                       "(Unable to allocate 14.6 TiB)\n")
        assert not out.exists()

    def test_an_enormous_chain_fails_at_once(self, tmp_path):
        # the chain allocates its draws before its first iteration, so 10**15 iterations ask for a
        # 14.2 PiB array and fail at once; a chain that grew its draws would run until the timeout
        data, out = _burr_file(tmp_path), tmp_path / "est.csv"
        argv = ["estimate", str(data), "--method", "mcmc", "--k-min", "100", "--k-max", "100",
                "--mcmc-iters", "1000000000000000", "--burn-in", "10", "--out", str(out)]
        code = f"import sys; from epdtail.cli import main; sys.exit(main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code], cwd=Path(et.__file__).parent.parent,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: not enough memory for the requested run (Unable to allocate ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_mcmc_adds_hpd_columns(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--k-min", "50", "--k-max", "50",
                     "--method", "mcmc", "--mcmc-iters", "800", "--burn-in", "200",
                     "--alpha", "0.1", "--seed", "1", "--out", str(out)]) == 0
        row = _read_rows(out)[0]
        assert float(row["hpd_lower"]) <= float(row["bayes_xi"]) <= float(row["hpd_upper"])

    def test_json_format(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.json"
        assert main(["estimate", str(data), "--k-min", "50", "--k-max", "50",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "k"
        assert payload["rows"][0][0] == 50

    def test_manifest_written(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--k-min", "50", "--k-max", "50",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert len(manifest["input_digest"]) == 64
        assert manifest["version"] == et.__version__

    def test_manifest_config_holds_every_flag(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--k-min", "50", "--rho-k1", "150",
                     "--rho-tuning", "1", "--seed", "7", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
        config = manifest["config"]
        flags = vars(build_parser().parse_args(["estimate", str(data)]))
        assert set(config) == set(flags) - {"command", "func"} | {"rho_source"}
        assert (config["rho_k1"], config["rho_tuning"], config["seed"]) == (150, 1.0, 7)
        assert manifest["seed"] == 7
        # the k bounds are the grid that ran, not the flags as given
        assert (config["k_min"], config["k_max"], config["k_step"]) == (50, 190, 5)
        assert config["rho_source"] == "estimated"

    def test_manifests_of_runs_with_other_rho_tuning_differ(self, tmp_path):
        # rho, and so the prior, depends on --rho-tuning: a manifest that left
        # it out would describe two different runs by one config
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        configs = []
        for tuning in ("0", "1"):
            assert main(["estimate", str(data), "--k-min", "50", "--k-max", "60",
                         "--rho-tuning", tuning, "--out", str(out)]) == 0
            configs.append(json.loads((tmp_path / "est.csv.manifest.json").read_text())["config"])
        assert {key for key in configs[0] if configs[0][key] != configs[1][key]} == {"rho_tuning"}

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 2

    def test_unparsable_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1\nx\ny\n")
        assert main(["estimate", str(bad)]) == 2

    def test_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"loss\n1.5\n2.5\xff\n3.5\n")
        assert main(["estimate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("data error: not UTF-8 text")

    def test_non_finite_first_value_is_data_error(self, tmp_path, capsys):
        # a first line of inf was taken for a header: the run exited 0 without it
        bad = tmp_path / "inf_first.csv"
        bad.write_text("inf\n" + "\n".join(repr(v) for v in np.arange(1.5, 25.25, 0.5)) + "\n")
        out = tmp_path / "est.csv"
        assert main(["estimate", str(bad), "--out", str(out)]) == 2
        assert "non-finite value at line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_rho_flag_is_usage_error(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        assert main(["estimate", str(data), "--rho", "sometimes"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--method", "mcmc", "--alpha", "1.5"],
        ["--rho", "fixed:nan"],
        ["--method", "mcmc", "--mcmc-iters", "100", "--burn-in", "200"],
        ["--rho", "fixed:-inf"],
        ["--rho-tuning", "0.5"],
        ["--rho-tuning", "nan"],
        ["--rho-k1", "5"],
        ["--rho-k1", "500"],
        ["--method", "mcmc", "--seed", "-1"],
        ["--x", "nan"],
        ["--method", "mcmc", "--mcmc-iters", "201", "--burn-in", "200"],
        ["--column", "-1"],
        ["--column", "-5"],
        ["--alpha", "1.5"],
        ["--alpha", "nan"],
    ])
    def test_bad_flags_are_usage_errors_before_any_row(self, tmp_path, capsys, flags):
        # these used to run every row and exit 0 with ValueError in each row
        # (with blank probabilities and no error for --x nan), or, for the rho
        # estimate's flags, end in a ValueError traceback; a negative --column
        # would index the fields from the end, and --alpha was checked only
        # under --method mcmc
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--k-min", "50", "--k-max", "50",
                     "--out", str(out)] + flags) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_default_grid_is_the_study_default(self, tmp_path):
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--out", str(out)]) == 0
        assert [int(r["k"]) for r in _read_rows(out)] == list(range(10, 191, 5))
        assert main(["estimate", str(data), "--k-min", "185", "--out", str(out)]) == 0
        assert [int(r["k"]) for r in _read_rows(out)] == [185, 190]

    @pytest.mark.parametrize("grid", [
        ["--k-min", "195"],
        ["--k-min", "60", "--k-max", "50"],
        ["--k-min", "60", "--k-max", "20", "--k-step", "-5"],
        ["--k-step", "0"],
        ["--k-max", "200"],
        ["--k-min", "5"],
    ])
    def test_bad_k_grid_is_usage_error(self, tmp_path, capsys, grid):
        # with k-min above the default k-max of n - 10 the grid is empty; it used
        # to run the single row k = k-min
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--out", str(out)] + grid) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_flags_are_ignored_by_the_closed_form(self, tmp_path):
        # a chain without draws is no error where no chain runs; --alpha is checked
        # under every method (test_bad_flags_are_usage_errors_before_any_row)
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--k-min", "50", "--k-max", "50",
                     "--mcmc-iters", "100", "--burn-in", "200",
                     "--out", str(out)]) == 0
        assert _read_rows(out)[0]["error"] == ""

    def test_non_finite_x_makes_standard_json(self, tmp_path):
        # the manifest records --x inf as its string, and the JSON rows hold numbers or null
        data = _pareto_grid_file(tmp_path)
        out = tmp_path / "est.json"
        assert main(["estimate", str(data), "--k-min", "50", "--k-max", "60", "--k-step", "10",
                     "--x", "inf", "--format", "json", "--out", str(out)]) == 0
        manifest = _strict_json(tmp_path / "est.json.manifest.json")
        assert manifest["config"]["x"] == "inf"
        rows = _strict_json(out)["rows"]
        assert len(rows) == 2 and all(v is None or isinstance(v, (int, float, str)) for r in rows for v in r)


def _write_sample(path: Path, sample) -> Path:
    path.write_text("\n".join(repr(float(v)) for v in sample.values) + "\n")
    return path


class TestSharedCell:
    """``estimate`` and the study run one per-threshold cell, ``simulate.estimate_cells``.

    ``estimate`` runs it on one sample; the study's chunk unit runs it on
    every replication of the chunk, whose ML fits run in lockstep. The
    study side here is a chunk of three replications, of which the sample
    is the first.
    """

    K_GRID = (20, 40, 60)

    def _study(self):
        cfg = et.MCStudyConfig(dist=et.burr(0.75, -0.75), n=200, reps=1, k_grid=self.K_GRID,
                               estimators=("hill", "epd_ml", "bayes_closed"),
                               rho_mode="fixed_minus_one", target_p=0.01, master_seed=42,
                               smooth_window=0)
        x = et.true_quantile(cfg.dist, 1.0 - cfg.target_p)
        sample = et.sample_distribution(cfg.dist, cfg.n, np.random.SeedSequence((42, 0)))
        return cfg, x, sample

    def _estimate(self, tmp_path, sample, x) -> list[dict]:
        out = tmp_path / "est.csv"
        assert main(["estimate", str(_write_sample(tmp_path / "s.csv", sample)),
                     "--rho", "fixed:-1", "--x", repr(x), "--k-min", "20", "--k-max", "60",
                     "--k-step", "20", "--out", str(out)]) == 0
        return _read_rows(out)

    def _chunk(self, cfg, x):
        """Replication 0's (n_estimators, n_k) xi and probability arrays, from a chunk of three."""
        xi, p = sim._study_chunk(cfg, self.K_GRID, x, range(3))
        return xi[0], p[0]

    def test_estimate_rows_equal_the_study_cells(self, tmp_path):
        cfg, x, sample = self._study()
        xi, p = self._chunk(cfg, x)
        rows = self._estimate(tmp_path, sample, x)
        for j, row in enumerate(rows):
            assert [row[c] for c in ("hill_xi", "ml_xi", "bayes_xi")] == [_fmt(v) for v in xi[:, j]]
            assert [row[c] for c in ("p_weissman", "p_epd_ml", "p_bayes")] == [_fmt(v) for v in p[:, j]]

    def test_a_failed_fit_fails_only_its_estimator(self, tmp_path, monkeypatch):
        real = sim.epd_ml_fits

        def failing_at_40(lik):
            # every lane's fit fails at k = 40, as an error the driver hands back
            fits = real(lik)
            return [RuntimeError("no fit") if lik.k == 40 else fit for fit in fits]

        monkeypatch.setattr(sim, "epd_ml_fits", failing_at_40)
        cfg, x, sample = self._study()
        xi, p = self._chunk(cfg, x)
        assert np.isnan(xi[1, 1]) and np.isnan(p[1, 1])
        assert np.isfinite(xi[[0, 2], 1]).all() and np.isfinite(p[[0, 2], 1]).all()
        assert np.isfinite(xi[:, [0, 2]]).all()
        rows = self._estimate(tmp_path, sample, x)
        assert [r["error"] for r in rows] == ["", "RuntimeError", ""]
        # the row keeps the estimators that did not fail, as the study does
        assert [rows[1][c] for c in ("hill_xi", "bayes_xi", "p_weissman", "p_bayes")] == [
            _fmt(v) for v in (xi[0, 1], xi[2, 1], p[0, 1], p[2, 1])]
        assert not rows[1]["ml_xi"] and not rows[1]["ml_delta"] and not rows[1]["p_epd_ml"]

    def test_mcmc_row_is_the_chain_seeded_from_seed_and_k(self, tmp_path):
        cfg, x, sample = self._study()
        out = tmp_path / "est.csv"
        assert main(["estimate", str(_write_sample(tmp_path / "s.csv", sample)),
                     "--method", "mcmc", "--rho", "fixed:-1", "--mcmc-iters", "800",
                     "--burn-in", "200", "--alpha", "0.1", "--seed", "7",
                     "--k-min", "40", "--k-max", "40", "--out", str(out)]) == 0
        (row,) = _read_rows(out)
        y = sample.values[:-41:-1] / sample.threshold(40)
        tau = -1.0 / (float(np.add.reduce(np.log(y))) / 40)
        seed = int(np.random.SeedSequence((7, 40)).generate_state(1)[0])
        chain = _chain(stack([(y, tau)]), 0, et.prior_variance(40, cfg.n, -1.0), et.MCMCConfig(800, 200, seed=seed))
        expected = [*et.posterior_mode(chain), *et.hpd_interval(chain.draws[:, 0], 0.1)]
        got = [row[c] for c in ("bayes_xi", "bayes_delta", "hpd_lower", "hpd_upper")]
        assert got == [_fmt(v) for v in expected]


class TestSimulate:
    def _args(self, tmp_path, **over):
        base = {
            "--dist": "burr:0.75:-0.75", "--n": "200", "--reps": "3",
            "--k-min": "20", "--k-max": "60", "--k-step": "20",
            "--rho": "fixed:-1", "--estimators": "hill,bayes_closed",
            "--target-p": "0.01", "--seed": "9", "--out": str(tmp_path / "study.csv"),
        }
        base.update(over)
        argv = ["simulate"]
        for k, v in base.items():
            if v is not None:
                argv += [k, v]
        return argv

    def test_outputs_written_and_parse(self, tmp_path, capsys):
        assert main(self._args(tmp_path)) == 0
        rows = _read_rows(tmp_path / "study.csv")
        assert {r["estimator"] for r in rows} == {"hill", "bayes_closed"}
        payload = json.loads((tmp_path / "study.json").read_text())
        assert payload["config"]["n"] == 200
        manifest = json.loads((tmp_path / "study.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"] == payload["config"] and manifest["seed"] == 9
        assert manifest["input_digest"] is None

    def test_a_k_where_every_replication_failed_is_null_in_the_json(self, tmp_path):
        # a chain of 12 iterations fails at small k, where the one replication is then
        # excluded: its metrics are NaN, blank in the CSV and null in the JSON
        out = tmp_path / "s.csv"
        assert main(["simulate", "--dist", "frechet:0.5", "--n", "400", "--reps", "1",
                     "--estimators", "hill,bayes_mcmc", "--mcmc-iters", "12", "--burn-in", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        rows = _strict_json(out.with_suffix(".json"))["rows"]
        failed = [r for r in rows if r["excluded"]]
        assert failed and all(r[m] is None for r in failed
                              for m in ("bias", "variance", "mse", "rel_bias", "rel_variance", "rel_mse"))
        assert all(r["bias"] is not None for r in rows if not r["excluded"])
        csv_failed = [r for r in _read_rows(out) if r["excluded"] != "0"]
        assert len(csv_failed) == len(failed) and all(r["bias"] == "" for r in csv_failed)
        _strict_json(tmp_path / "s.csv.manifest.json")

    def test_byte_identical_across_reruns_and_workers(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        assert main(self._args(tmp_path, **{"--out": str(out1)})) == 0
        assert main(self._args(tmp_path, **{"--out": str(out2), "--workers": "2"})) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()

    def test_zero_reps_is_usage_error(self, tmp_path):
        assert main(self._args(tmp_path, **{"--reps": "0"})) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, workers):
        import epdtail.cli as cli

        def must_not_run(cfg, workers=1):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_study", must_not_run)
        assert main(self._args(tmp_path, **{"--workers": workers})) == 1
        assert "usage error: --workers must be >= 1" in capsys.readouterr().err

    def test_chain_without_draws_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import epdtail.cli as cli

        def must_not_run(cfg, workers=1):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_study", must_not_run)
        argv = self._args(tmp_path, **{"--estimators": "bayes_mcmc", "--mcmc-iters": "100",
                                       "--burn-in": "200"})
        assert main(argv) == 1
        assert "usage error: need iterations > burn_in" in capsys.readouterr().err

    def test_chain_with_one_draw_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # one draw after burn-in makes every chain degenerate; the study must not start
        import epdtail.cli as cli

        def must_not_run(cfg, workers=1):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_study", must_not_run)
        argv = self._args(tmp_path, **{"--estimators": "hill,bayes_mcmc", "--mcmc-iters": "1001",
                                       "--burn-in": "1000"})
        assert main(argv) == 1
        assert capsys.readouterr().err == "usage error: bayes_mcmc needs 2 draws after burn-in, got 1\n"

    def test_chain_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(sim, "_chain", out_of_memory)
        argv = self._args(tmp_path, **{"--estimators": "bayes_mcmc",
                                       "--mcmc-iters": "1000000000000"})
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "usage error: not enough memory for the requested run (MemoryError)\n"
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize("dist", ["frechet:1e308", "loggamma:4:1e-308", "burr:0.5:-1e-300", "burr:300:-0.001"])
    def test_overflowing_law_is_a_numerical_failure(self, tmp_path, capsys, dist):
        # the Fréchet quantile or the loggamma draws overflow a float, or every Burr draw
        # underflows to 0: one line, exit 3
        out = tmp_path / "study.csv"
        assert main(["simulate", "--dist", dist, "--n", "60", "--reps", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not out.exists()

    def test_a_quantile_that_overflows_names_its_law(self, tmp_path, capsys):
        # the true quantile (-log p)**-1000 overflows before any draw is made
        out = tmp_path / "study.csv"
        assert main(["simulate", "--dist", "frechet:1000", "--n", "60", "--reps", "3", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: the frechet(1000.0) quantile at p = 0.998 overflows a float\n"
        assert not out.exists()

    @pytest.mark.parametrize("target_p", ["5e-17", "1e-320"])
    def test_target_p_below_the_float_spacing_at_one_is_usage_error(self, tmp_path, capsys,
                                                                     target_p):
        # 1 - target_p rounds to 1, where the true quantile is not defined
        argv = self._args(tmp_path, **{"--dist": "frechet:0.5", "--target-p": target_p})
        assert main(argv) == 1
        assert "usage error: target_p" in capsys.readouterr().err
        assert not (tmp_path / "study.csv").exists()

    def test_estimator_named_twice_is_usage_error(self, tmp_path, capsys):
        assert main(self._args(tmp_path, **{"--estimators": "hill,hill"})) == 1
        assert "usage error: an estimator is named twice" in capsys.readouterr().err
        assert not (tmp_path / "study.csv").exists()

    def test_payload_config_is_the_study_config(self, tmp_path):
        # settings given nowhere take the MCStudyConfig defaults, and the
        # payload serialises every field of the config
        out = tmp_path / "d.csv"
        assert main(["simulate", "--dist", "frechet:0.5", "--n", "60", "--reps", "2",
                     "--estimators", "hill", "--out", str(out)]) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        cfg = et.MCStudyConfig(dist=et.frechet(0.5), n=60, reps=2, estimators=("hill",))
        expected = json.loads(json.dumps({**asdict(cfg), "k_grid": list(cfg.resolved_k_grid())}))
        assert payload["config"] == expected
        assert payload["reps_used"] == 2

    def test_each_study_field_is_filled_by_one_key(self):
        filled = sorted(f for _, f in _CONFIG_KEYS.values() if f)
        assert filled == sorted(f.name for f in fields(et.MCStudyConfig) if f.name != "k_grid")

    def test_unknown_distribution_lists_supported(self, tmp_path, capsys):
        assert main(self._args(tmp_path, **{"--dist": "zipf:2"})) == 1
        assert "supported" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        {"--dist": "frechet:0.5", "--k-min": "60", "--k-max": "50"},
        {"--k-step": "-5"},
        {"--k-step": "0"},
        {"--dist": "frechet:0.5", "--k-min": "60", "--k-max": "20", "--k-step": "-5"},
        {"--seed": "-1"},
        {"--rho": "fixed:-2"},
    ])
    def test_empty_k_grid_is_usage_error(self, tmp_path, capsys, grid):
        # an empty grid must not fall through to the study's default grid; a
        # negative seed, which numpy's SeedSequence rejects, must stop the
        # study before it runs instead of ending in a traceback; and a study
        # fixes rho only at -1
        assert main(self._args(tmp_path, **grid)) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize("dist", ["burr:abc:-1", "frechet:-1", "frechet:", "burr:0.5:0.5",
                                      "loggamma:0:2", "frechet:nan", "frechet:inf", "burr:inf:-1",
                                      "burr:0.5:-inf", "loggamma:nan:1", "loggamma:4:inf"])
    def test_bad_distribution_values_are_usage_errors(self, tmp_path, capsys, dist):
        assert main(self._args(tmp_path, **{"--dist": dist})) == 1
        assert f"usage error: bad distribution {dist!r}" in capsys.readouterr().err

    def test_bundled_config_loads_with_overrides(self, tmp_path):
        out = tmp_path / "cfg.csv"
        code = main(["simulate", "--config", "burr_fig2", "--reps", "2",
                     "--k-min", "100", "--k-max", "120", "--k-step", "10",
                     "--n", "150", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        # overridden values win; untouched file values persist
        assert payload["config"]["reps"] == 2
        assert payload["config"]["dist"]["kind"] == "burr"
        assert payload["config"]["master_seed"] == 202408

    def test_config_file_from_path(self, tmp_path):
        conf = tmp_path / "mini.conf"
        conf.write_text(
            "# tiny study\ndist = frechet:0.5\nn = 150\nreps = 2\n"
            "k-min = 20\nk-max = 40\nk-step = 20\nrho = fixed:-1\n"
            "estimators = hill\ntarget-p = 0.01\nseed = 3\n"
        )
        out = tmp_path / "mini.csv"
        assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
        assert len(_read_rows(out)) == 2

    def test_bad_config_line_is_data_error(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("dist frechet:0.5\n")
        assert main(["simulate", "--config", str(conf)]) == 2

    def test_config_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        conf = tmp_path / "latin1.conf"
        conf.write_bytes(b"dist = frechet:0.5\n# r\xe9sum\xe9\nn = 150\n")
        assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("data error: not UTF-8 text")

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # Notepad saves UTF-8 with a BOM, which was read as part of the first key
        conf = tmp_path / "bom.conf"
        conf.write_bytes(b"\xef\xbb\xbfdist = frechet:0.5\nn = 150\nreps = 2\n"
                         b"k-min = 20\nk-max = 40\nk-step = 20\nestimators = hill\n")
        out = tmp_path / "bom.csv"
        assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["config"]["dist"]["kind"] == "frechet"

    @pytest.mark.parametrize("line, key", [
        ("n = abc", "'n'"),
        ("reps = 2.5", "'reps'"),
        ("target_p = often", "'target-p'"),
        ("estimator = hill", "'estimator'"),
    ])
    def test_bad_config_value_or_key_is_data_error(self, tmp_path, capsys, line, key):
        # a misspelt key must not leave the study on its default for that key
        conf = tmp_path / "bad.conf"
        conf.write_text(f"dist = frechet:0.5\nn = 150\nreps = 2\n{line}\n")
        out = tmp_path / "bad.csv"
        assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: bad config line 4") and key in err
        assert not out.exists()

    def test_missing_dist_is_usage_error(self, tmp_path):
        assert main(["simulate", "--reps", "2"]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import epdtail.cli as cli

        def exploding(cfg, workers=1):
            raise et.StudyError("too many failed cells")

        monkeypatch.setattr(cli, "run_study", exploding)
        assert main(self._args(tmp_path)) == 3


class TestAsymptoticsCmd:
    def test_curves_and_relations(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["asymptotics", "--xi", "0.5", "--rho", "-1",
                     "--lambda-min", "0", "--lambda-max", "5",
                     "--lambda-step", "0.25", "--out", str(out)]) == 0
        rows = _read_rows(out)
        assert float(rows[0]["lambda"]) == 0.0
        # at lambda = 0 both the optimal and Hill curves equal xi**2
        assert float(rows[0]["mse_opt"]) == pytest.approx(0.25)
        assert float(rows[0]["mse_hill"]) == pytest.approx(0.25)
        for row in rows:
            assert float(row["mse_opt"]) <= float(row["mse_ml"]) + 1e-9

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["asymptotics", "--xi", "0.5", "--rho", "-0.75"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_config_is_its_flags(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["asymptotics", "--xi", "0.5", "--rho", "-0.75", "--lambda-step", "0.5"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "asymptotics.csv.manifest.json").read_text())
        flags = vars(build_parser().parse_args(argv))
        del flags["command"], flags["func"]
        assert manifest["config"] == flags
        assert flags["out"] == "asymptotics.csv"  # the file written, not an unset flag
        assert manifest["command"] == "asymptotics" and manifest["seed"] is None
        assert manifest["input_digest"] is None

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        # a step of 1e-300 asks np.arange for more elements than it can index
        for flags in (["--lambda-min", "2", "--lambda-max", "1"], ["--lambda-step", "nan"],
                      ["--lambda-max", "nan"], ["--lambda-step", "1e-300"]):
            out = tmp_path / "curves.csv"
            assert main(["asymptotics", "--xi", "0.5", "--rho", "-1",
                         "--out", str(out)] + flags) == 1
            assert "usage error: bad lambda grid" in capsys.readouterr().err
            assert not out.exists()

    def test_negative_lambda_min_is_usage_error(self, tmp_path, capsys):
        # the bias scale lambda is nonnegative; a negative start ended in a ValueError traceback
        out = tmp_path / "curves.csv"
        assert main(["asymptotics", "--xi", "0.5", "--rho", "-1", "--lambda-min", "-1",
                     "--lambda-max", "0", "--out", str(out)]) == 1
        assert "usage error: bad lambda grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-12", "1e-9"])
    def test_long_grid_is_rejected_before_allocating(self, tmp_path, capsys, monkeypatch, step):
        # 5e12 and 5e9 rows: numpy would try to allocate 36.4 TiB and 37 GiB
        def must_not_run(*args):
            raise AssertionError("np.arange ran")

        monkeypatch.setattr(np, "arange", must_not_run)
        out = tmp_path / "curves.csv"
        assert main(["asymptotics", "--xi", "1", "--rho", "-1", "--lambda-step", step,
                     "--out", str(out)]) == 1
        assert "usage error: bad lambda grid" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_value_in_exponent_form_is_a_value_not_a_flag(self, tmp_path):
        # Python 3.11's argparse took "-1e-3" for a flag and asked --rho for its argument
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["asymptotics", "--xi", "0.5", "--rho", "-1e-3", "--out", str(a)]) == 0
        assert main(["asymptotics", "--xi", "0.5", "--rho=-1e-3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_positive_xi_required(self, tmp_path, capsys):
        # an infinite xi wrote a file of inf and blank cells
        for xi, rho in (("-0.5", "-1"), ("nan", "-1"), ("0.5", "nan"), ("inf", "-1"), ("0.5", "-inf")):
            out = tmp_path / "curves.csv"
            assert main(["asymptotics", f"--xi={xi}", f"--rho={rho}", "--out", str(out)]) == 1
            assert "usage error: need xi > 0" in capsys.readouterr().err
            assert not out.exists()


def test_import_loads_only_the_lbfgsb_core_and_no_pool():
    # importing scipy.stats costs about half a second and 20 MB in every process, and
    # scipy.special and the scipy.optimize package about 0.4 s more: the library loads
    # only the compiled L-BFGS-B core (epd._load_lbfgsb), and the priors' constants come
    # from the standard library (math.erfc, math.lgamma). scipy's own package (1.3 MB)
    # stays out too, and the process-pool stack (2 MB) loads only where a study starts a pool
    heavy = ("scipy.special", "scipy.optimize", "scipy.stats", "scipy.linalg", "scipy.sparse",
             "scipy", "concurrent.futures", "multiprocessing")
    # the peak is the process's own VmHWM: ru_maxrss would report the forking test process's
    code = ("import sys, numpy; before = set(sys.modules); import epdtail, epdtail.cli; "
            f"print(any(m in sys.modules for m in {heavy!r}), 'scipy.optimize._lbfgsb' in sys.modules, "
            "len(set(sys.modules) - before), "
            "next((int(line.split()[1]) / 1024 for line in open('/proc/self/status') if line.startswith('VmHWM')), "
            "float('nan')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(et.__file__).parent.parent,
                          capture_output=True, text=True, check=True)
    loaded, core, modules, peak = proc.stdout.split()
    print(f"COLD-IMPORT epdtail.cli: {modules} modules, peak RSS {float(peak):.1f} MB")
    assert (loaded, core) == ("False", "True")


@pytest.mark.parametrize("command, flags, phases", [
    ("estimate", ["--k-max", "60"], {"load", "rho", "estimate", "write"}),
    ("estimate", ["--k-max", "60", "--method", "mcmc", "--mcmc-iters", "400", "--burn-in", "100",
                  "--format", "json"], {"load", "rho", "estimate", "write"}),
    ("simulate", ["--dist", "frechet:0.5", "--n", "200", "--reps", "2", "--k-min", "20", "--k-max", "30"],
     {"study", "write"}),
    ("asymptotics", ["--xi", "0.5", "--rho", "-0.75"], {"curves", "write"}),
], ids=["estimate-closed", "estimate-mcmc", "simulate", "asymptotics"])
def test_manifest_times_each_phase(tmp_path, command, flags, phases):
    # the timings are volatile, so they go in the manifest and in no data file
    data = [str(_pareto_grid_file(tmp_path))] if command == "estimate" else []
    out = tmp_path / "out"
    assert main([command, *data, *flags, "--out", str(out)]) == 0
    got = _strict_json(tmp_path / "out.manifest.json")["phases"]
    assert set(got) == phases
    assert all(set(t) == {"wall_s", "cpu_s"} and min(t.values()) >= 0.0 for t in got.values())


def test_loggamma_study_runs_in_a_fresh_process(tmp_path):
    # the loggamma law imports gammaincc and gammainccinv where it runs
    argv = ["simulate", "--dist", "loggamma:4:2", "--n", "100", "--reps", "2", "--k-min", "10",
            "--k-max", "20", "--out", str(tmp_path / "lg")]
    code = f"import sys; from epdtail.cli import main; print(main({argv!r}), 'scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(et.__file__).parent.parent,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 True"
    assert (tmp_path / "lg").read_text().startswith("estimator,k,")


@pytest.mark.parametrize("module, name", [
    ("bayes", "log_prior_xi"), ("bayes", "log_prior_delta"), ("classical", "HillEstimate"),
    ("asymptotics", "mse_opt_weighted"), ("epd", "epd_loglik_grad"),
    ("bayes", "_profile_posterior_mode"), ("epd", "_Likelihood.value_and_grad"),
    ("bayes", "_solve_first_order"), ("bayes", "_system_coefficients"), ("classical", "moment_stat"),
    # the one-lane API: each called a stack function on one lane, or was the record of its result
    ("bayes", "BayesEstimate"), ("bayes", "bayes_closed_form"), ("bayes", "metropolis_sample"),
    ("bayes", "bayes_tail_prob"), ("classical", "hill"), ("classical", "weissman_tail_prob"),
    ("data", "ExcessSet"), ("data", "excesses"), ("epd", "EPDParams"), ("epd", "EPDFit"),
    ("epd", "epd_log_likelihood"), ("epd", "epd_ml_fit"), ("epd", "epd_survival"), ("epd", "epd_tail_prob"),
    ("epd", "epd_quantile"), ("epd", "epd_sample"), ("epd", "_invert_survival"), ("epd", "_unwrap"),
    ("epd", "_Likelihood.__call__"), ("second_order", "tau_hat"), ("simulate", "survival"),
])
def test_test_only_names_are_not_in_the_library(module, name):
    # their reference copies, where a test still needs one, are in tests/oracles.py;
    # a dotted name is a method of a class of the module, and a module may be gone
    assert not hasattr(et, name)
    if importlib.util.find_spec(f"epdtail.{module}") is None:
        return
    mod = importlib.import_module(f"epdtail.{module}")
    owner, _, attr = name.rpartition(".")
    holder = getattr(mod, owner) if owner else mod
    assert not hasattr(et, name) and attr not in dir(holder) and name not in mod.__all__


def test_the_package_exports_the_stacks_entry_point():
    # one sample is a one-lane stack, estimated by the call ``epdtail estimate`` makes
    assert et.estimate_cells is sim.estimate_cells and et.Cells is sim.Cells and et.k_range is sim.k_range


def test_likelihood_and_chain_config_keep_only_what_the_library_uses():
    assert not hasattr(et.epd._Likelihood, "grad")
    assert "fix_delta" not in {f.name for f in fields(et.MCMCConfig)}

"""Property tests of the invariances the method promises, run through ``epdtail estimate``.

The estimators read a sample only through its order statistics and the
ratios of its excesses to the threshold, so the order of the lines of a
data file cannot matter, and a scale that is exact in binary moves only
the threshold. Ties at the threshold give excesses of exactly 1.0, which
an estimate must turn into values or a named error.
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import epdtail as et
from epdtail.cli import _fmt, main

DISTS = st.sampled_from([et.burr(0.75, -0.75), et.frechet(0.5), et.burr(0.5, -2.0)])
# short chains, so that a drawn example costs little; their rows are compared all the same
CHAIN = ["--mcmc-iters", "300", "--burn-in", "100"]


def _estimate(lines: list[str], *flags: str) -> tuple[bytes, int]:
    """The output bytes and exit code of ``epdtail estimate`` on a data file of ``lines``."""
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        data.write_text("\n".join(lines) + "\n")
        code = main(["estimate", str(data), "--out", str(out), *flags])
        return out.read_bytes() if out.exists() else b"", code


def _method(name: str) -> list[str]:
    return ["--method", name] + (CHAIN if name == "mcmc" else [])


@settings(max_examples=12)
@given(dist=DISTS, n=st.integers(40, 400), seed=st.integers(0, 2**32 - 1), order=st.integers(0, 2**32 - 1),
       method=st.sampled_from(["closed", "mcmc"]))
def test_permuting_the_lines_leaves_the_csv_byte_identical(dist, n, seed, order, method):
    values = et.sample_distribution(dist, n, seed).values
    lines = ["loss"] + [repr(float(v)) for v in values]
    shuffled = lines[:1] + [lines[1:][i] for i in np.random.default_rng(order).permutation(n)]
    flags = ["--x", repr(float(values[-3])), "--k-step", "10", *_method(method)]
    want, code = _estimate(lines, *flags)
    assert code == 0 and want.count(b"\n") > 1
    assert _estimate(shuffled, *flags) == (want, 0)


@settings(max_examples=12)
@given(dist=DISTS, n=st.integers(40, 400), seed=st.integers(0, 2**32 - 1), m=st.integers(-200, 200),
       rho=st.sampled_from(["-0.5", "-1", "-2.5"]), method=st.sampled_from(["closed", "mcmc"]))
def test_a_binary_scale_moves_only_the_threshold(dist, n, seed, m, rho, method):
    # 2**m times a value is exact, so every excess, and x over the threshold, keeps its bits
    values = et.sample_distribution(dist, n, seed).values
    x = float(values[-3])
    flags = ["--rho", f"fixed:{rho}", "--k-step", "10", "--format", "json", *_method(method)]
    base, code = _estimate([repr(float(v)) for v in values], "--x", repr(x), *flags)
    scaled, code_scaled = _estimate([repr(float(v) * 2.0 ** m) for v in values], "--x", repr(x * 2.0 ** m),
                                    *flags)
    assert code == code_scaled == 0
    base, scaled = json.loads(base), json.loads(scaled)
    col = base["columns"].index("threshold")
    assert scaled["columns"] == base["columns"] and len(scaled["rows"]) == len(base["rows"]) > 1
    for row, row_scaled in zip(base["rows"], scaled["rows"]):
        threshold = float(values[n - row[0] - 1])  # the (k+1)-th largest value
        assert row[col] == float(_fmt(threshold))
        assert row_scaled[col] == float(_fmt(threshold * 2.0 ** m))
        assert json.dumps(row[:col] + row[col + 1:]) == json.dumps(row_scaled[:col] + row_scaled[col + 1:])


@settings(max_examples=15)
@given(n=st.integers(30, 200), seed=st.integers(0, 2**32 - 1), start=st.floats(0.0, 1.0),
       width=st.floats(0.02, 1.0), method=st.sampled_from(["closed", "mcmc"]))
def test_ties_at_the_threshold_give_values_or_a_named_error(n, seed, start, width, method):
    # a run of equal values, up to the whole sample, so that at some k the threshold equals
    # some or all of the excesses and those excesses are exactly 1.0
    values = et.sample_distribution(et.frechet(0.5), n, seed).values.copy()
    i = int(start * (n - 11))
    values[i:i + max(2, int(width * n))] = values[i]
    k = n - 1 - i  # at k >= 10, the threshold is the first value of the run and the last excess the second
    out, code = _estimate([repr(float(v)) for v in values], "--k-step", "1", "--k-min", "10",
                          "--k-max", str(n - 1), *_method(method))
    assert code == 0
    rows = list(csv.DictReader(out.decode().splitlines()))
    assert [int(row["k"]) for row in rows] == list(range(10, n))
    assert rows[k - 10]["k"] == str(k) and values[n - k] / values[n - k - 1] == 1.0
    for row in rows:
        if row["error"]:
            assert row["error"].isidentifier() and row["error"].endswith("Error"), row
            continue
        assert all(np.isfinite(float(v)) for key, v in row.items() if key != "error"), row

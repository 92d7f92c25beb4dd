"""Write the default-seed reference outputs that ``run.py`` checks against.

    python3 bench/make_reference.py           # full-size units -> bench/reference/
    python3 bench/make_reference.py --smoke   # smoke units     -> bench/reference/smoke/

Run it only when the outputs are meant to change; a reference written by
code that computes wrong numbers makes the check pass on wrong numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

from epdtail import cli  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    reference_dir = BENCH / "reference" / ("smoke" if args.smoke else "")
    work = BENCH.parent / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.write_mcmc_input(wl.input_path(work, wl.DEFAULT_SEED), wl.DEFAULT_SEED)
    for w in wl.WORKLOADS.values():
        out = work / f"{w.name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(wl.cli_argv(w, wl.DEFAULT_SEED, 0, work, out, args.smoke))
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += wl.invariant_problems(w, out) if code == 0 else []
        if problems:
            print(f"{w.name}: not written: {problems}", file=sys.stderr)
            return 1
        wl.write_reference(w, out, wl.reference_path(w, reference_dir))
        print(f"{w.name}: wrote {wl.reference_path(w, reference_dir)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

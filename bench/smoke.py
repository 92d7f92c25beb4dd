"""Smoke run of the benchmark itself, with tiny units. Exits 0 when all hold:

- every workload, traced and untraced, exits 0 with ``"correct": true``
  and emits every metric of BENCHMARK.json with its unit;
- two traced runs of one seed give identical counts;
- a corrupted reference makes the output check fail (exit 1, all cells failed);
- in a directory holding only BENCHMARK.json and ``bench/``, the benchmark
  exits non-zero without printing a result.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import EXACT_COUNTS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok      " if ok else "FAILED  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench("--workload", w["name"], "--trace", str(trace))
            expect(code == 0 and result is not None and result["correct"],
                   f"{w['name']} --trace {trace} runs and its outputs check")
            if result is None:
                continue
            got = result["metrics"]
            expect(all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                       and isinstance(got[m["name"]]["value"], (int, float)) for m in spec[key])
                   and len(got) == len(spec[key]),
                   f"{w['name']} --trace {trace} emits every {key} metric with its unit")
            if trace:
                _, again = bench("--workload", w["name"], "--trace", "1")
                counts = {k: v["value"] for k, v in got.items() if k.endswith(EXACT_COUNTS)}
                expect(again is not None and all(again["metrics"][k]["value"] == v for k, v in counts.items()),
                       f"{w['name']} traced counts repeat exactly")

    corrupt = ROOT / ".bench_work" / "smoke-corrupt-reference"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(BENCH / "reference" / "smoke", corrupt)
    ref = corrupt / "frechet_fig1.json"
    rows = json.loads(ref.read_text())
    rows["rows"][0]["bias"] *= 1.001
    ref.write_text(json.dumps(rows))
    code, result = bench("--workload", "frechet_w1", "--reference", str(corrupt))
    expect(code == 1 and result is not None and not result["correct"]
           and result["failed"] == result["attempted"],
           "a corrupted reference fails the output check")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", "burr_w1", cwd=bare)
    expect(code != 0 and result is None, "without the source tree it exits non-zero and prints no result")

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

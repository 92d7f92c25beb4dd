"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --out bench/results/<name>.json
    python3 bench/collect.py --workloads frechet_w1 --seeds 1-5

For every workload and metric it reports the values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
``bench/results/`` keeps summaries written this way.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"seed": seed, "exit": proc.returncode, "wall_s": wall, "result": result,
            "stderr": proc.stderr[-2000:]}


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / abs(med) if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values), "values": values}
    if bound is not None:
        out["bound"] = bound
        out["within_third_of_bound"] = spread < bound / 3
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"trace": args.trace, "seconds": args.seconds, "python": platform.python_version(),
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, args.trace, args.seconds)
            runs.append(r)
            status = "ok" if r["exit"] == 0 and r["result"] and r["result"]["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status} in {r['wall_s']:.1f} s", flush=True)
            ok &= status == "ok"
        good = [r["result"] for r in runs if r["result"]]
        summary = {
            m["name"]: summarise([g["metrics"][m["name"]]["value"] for g in good], m.get("bound"))
            | {"unit": m["unit"], "better": m["better"]}
            for m in metrics
        } if good else {}
        report["workloads"][workload] = {
            "run_wall_s": summarise([r["wall_s"] for r in runs], None),
            "runs": [{"seed": r["seed"], "exit": r["exit"], "wall_s": r["wall_s"],
                      "correct": bool(r["result"] and r["result"]["correct"]),
                      "attempted": r["result"]["attempted"] if r["result"] else 0,
                      "failed": r["result"]["failed"] if r["result"] else 0} for r in runs],
            "metrics": summary,
        }
        for name, s in summary.items():
            if "bound" in s:
                print(f"  {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.3f}"
                      f" (bound {s['bound']})", flush=True)
        if args.out:  # rewritten after every workload, so a long collection can be read early
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

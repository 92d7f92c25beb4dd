"""Timing wrappers around the layer functions that the study and CLI code call.

The wrappers replace names in the namespaces of ``epdtail.simulate`` and
``epdtail.cli`` (the modules that call the layers), so the library itself
is unchanged. Spans nest as ``cli.main`` (opened by the caller), then
``simulate.run_study`` for a study, then the layer calls; no layer
function calls another wrapped name.

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
written out at the end; per-name counters (calls, seconds, solver routes,
ML iterations, Metropolis draws) are kept alongside.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# function name -> layer name; the function is looked up in each calling module
LAYER_OF = {
    "sample_distribution": "simulate",
    "load_sample": "data",
    "excesses": "data",
    "hill": "classical",
    "weissman_tail_prob": "classical",
    "resolve_rho": "second_order",
    "tau_hat": "second_order",
    "epd_ml_fit": "epd",
    "epd_tail_prob": "epd",
    "prior_variance": "bayes",
    "bayes_closed_form": "bayes",
    "metropolis_sample": "bayes",
    "posterior_mode": "bayes",
    "hpd_interval": "bayes",
    "bayes_tail_prob": "bayes",
    "run_study": "simulate",
}

# suffixes of the per-layer metrics that are counts; they repeat exactly
# between traced runs of one seed
EXACT_COUNTS = (".calls", ".iterations", ".nonconverged", ".accepted", ".fallbacks", ".errors")


class Tracer:
    """Collects spans and counters for one traced call of ``cli.main``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def install(self, *modules) -> None:
        for mod in modules:
            for fname, layer in LAYER_OF.items():
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                self._saved.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(f"{layer}.{fname}", fn))

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._saved):
            setattr(mod, fname, fn)
        self._saved.clear()

    # ------------------------------------------------------------ spans
    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span called ``name`` and return its result."""
        parent = self._stack[-1]
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))  # filled in when the call ends
        self._stack.append(index)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self._close(index, name, t0, time.perf_counter(), parent)
            self.counts["trace.errors"] += 1
            raise
        t1 = time.perf_counter()
        self._close(index, self._classify(name, args, result), t0, t1, parent)
        return result

    def _close(self, index: int, name: str, t0: float, t1: float, parent: int) -> None:
        self._stack.pop()
        self.spans[index] = (name, t0, t1, parent)
        self.calls[name] += 1
        self.seconds[name] += t1 - t0

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _classify(self, name: str, args, result) -> str:
        """Span name after reading what the result says about its route."""
        if name == "bayes.bayes_closed_form":
            return "bayes.closed_linear" if result.solver == "linear" else "bayes.closed_profile_map"
        if name == "epd.epd_ml_fit":
            self.counts["epd.epd_ml_fit.iterations"] += int(result.iterations)
            self.counts["epd.epd_ml_fit.nonconverged"] += int(not result.converged)
        elif name == "second_order.resolve_rho":
            self.counts["second_order.resolve_rho.fallbacks"] += int(result[1] != "estimated")
        elif name == "bayes.metropolis_sample":
            config = args[3]
            retained = config.iterations - config.burn_in
            self.counts["bayes.metropolis.iterations"] += int(config.iterations)
            self.counts["bayes.metropolis.retained"] += int(retained)
            self.counts["bayes.metropolis.accepted"] += int(round(result.acceptance_rate * retained))
            return "bayes.metropolis"
        return name

    # ------------------------------------------------------------ output
    def self_seconds(self, name: str) -> float:
        """Duration of the spans called ``name`` minus that of their children."""
        index = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in index)
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in index)
        return total - covered

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}, separators=(",", ":")))

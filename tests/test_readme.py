"""The README's library quick start runs as written, on a Burr sample in a ``losses.csv``.

Every ``python`` block of README.md runs in turn in one namespace, in a
directory that holds the data file the first block loads. A name the
README calls that the library no longer has fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_the_quick_start_runs_on_a_burr_sample(tmp_path, monkeypatch):
    # Burr(0.75, -0.75) draws scaled by 1e-3, so that the README's x = 0.18 lies far above
    # the threshold at k = 150, where P(X > x) is about 1e-3
    u = np.random.default_rng(2026).random(2000)
    x = 1e-3 * (np.minimum(1.0 - u, np.nextafter(1.0, 0.0)) ** -0.75 - 1.0)
    (tmp_path / "losses.csv").write_text("loss\n" + "\n".join(map(repr, x.tolist())) + "\n")
    monkeypatch.chdir(tmp_path)
    blocks = _python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    exec(compile(blocks[0], "README.md quick start", "exec"), namespace)
    cells = namespace["cells"]
    assert namespace["failed"] == {} and np.isfinite(cells.estimates).all()
    assert all(0.0 < p < 0.01 for p in cells.estimates[0, :, 2])
    exec(compile(blocks[1], "README.md chain", "exec"), namespace)
    assert namespace["chain"] is not None
    assert namespace["lo"] <= namespace["hi"] and namespace["xi_hat"] > 0

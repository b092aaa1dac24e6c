"""One-off reference figures quoted in README.md, outside the timed workloads.

    python3 bench/figures.py

Prints the machine and package versions, the serial 300-point criterion-10
sweep time against its 30 s budget, and the fig6 dataset at b-step 0.1 with
workers=1 against workers=2, three times each in alternating order.  Takes
about a minute and a half on two cores.
"""

from __future__ import annotations

import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import load_package  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> None:
    pj = load_package()
    import numpy
    import scipy

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    sweeps = pj["sweeps"]
    # the grid and spec of acceptance criterion 10
    grid = tuple(round(5.0 * k / 299, 10) for k in range(300))
    spec = sweeps.SweepSpec(grid=grid, c=0.0, param="b", methods=("numeric",))
    print(f"criterion-10 sweep, 300 points, serial: {timed(lambda: sweeps.run_sweep(spec)):.1f} s "
          f"(budget 30 s)")
    fig_grid = sweeps.default_grid(0.1)
    times = {1: [], 2: []}
    for workers in (1, 2, 2, 1, 1, 2):
        times[workers].append(timed(
            lambda: sweeps.reproduce_figure("fig6", b_grid=fig_grid, workers=workers)))
    for workers, ts in times.items():
        print(f"fig6 at b-step 0.1 ({len(fig_grid)} points), workers={workers}: "
              + ", ".join(f"{t:.1f}" for t in ts) + " s")


if __name__ == "__main__":
    main()

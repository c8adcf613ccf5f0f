"""Measure the cost ranks that stratify the benchmark's draws.

    python3 perfbench/cost_ranks.py

Writes cost_ranks.json next to this file: for each population the
benchmark draws from, its members sorted by the measured time of the work
they cause, as [L^2, milliseconds] pairs.

- scan_flagged: every flagged row (L^2 = 0 mod 18, 3 not dividing y0) up to
  10^4, timed by kummer_structures.decide, where swap resolution dominates.
- roots_small: every admissible L^2 <= 200 with a Pell solution, timed by
  the roots operation.
- roots_large: every 8th admissible L^2 in 2000..10^4 with a Pell solution,
  timed by the roots operation.

Only the order is used.  Re-measure it on a quiet machine when the
benchmark is redefined, never in a change that claims a gain.
"""

import json
from time import perf_counter

from run import RANKS_PATH, load_package


def _timed(fn):
    start = perf_counter()
    fn()
    return round(1000 * (perf_counter() - start), 3)


def main():
    wl = load_package()
    oracle = wl.oracle

    def solvable(v):
        return oracle.admissible(v) and oracle.criterion(v)["pell"] is not None

    flagged = [v for v in range(18, wl.L2_MAX - 8, 18) if oracle.criterion(v)["flagged"]]
    small = [v for v in range(2, 201) if solvable(v)]
    large = [v for v in range(2000, wl.L2_MAX + 1) if solvable(v)][::8]

    def roots_cost(v):
        return _timed(lambda: wl.run_op(("roots", v, ""), None))

    data = {
        "scan_flagged": [[v, _timed(lambda: wl.decide(wl.build_ns(v)))] for v in flagged],
        "roots_small": [[v, roots_cost(v)] for v in small],
        "roots_large": [[v, roots_cost(v)] for v in large],
    }
    for key in data:
        data[key].sort(key=lambda pair: (pair[1], pair[0]))
    with open(RANKS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()

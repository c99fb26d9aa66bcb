"""Recompute the reference sizes of the proven table cells that the paper
does not give, and write them to references.json.

    python3 bench/references.py

Uses neither tracezero nor its solver: the interior candidates (all
coordinates <= d, sum 2d+1) are enumerated here, and the size is the m
corners plus networkx's exact maximum clique of the complement of the
conflict graph (edges at l1 distance <= 2d). (7, 2) takes about 19 s.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import networkx as nx

from workloads import PAPER_SIZES, PROVEN_CELLS

OUT = Path(__file__).resolve().parent / "references.json"


def interior(m: int, d: int):
    return [p for p in itertools.product(range(d + 1), repeat=m) if sum(p) == 2 * d + 1]


def reference_size(m: int, d: int) -> int:
    pts = interior(m, d)
    compatible = nx.Graph()
    compatible.add_nodes_from(range(len(pts)))
    for i, j in itertools.combinations(range(len(pts)), 2):
        if sum(abs(x - y) for x, y in zip(pts[i], pts[j])) > 2 * d:
            compatible.add_edge(i, j)
    _, size = nx.max_weight_clique(compatible, weight=None)
    return m + size


def main() -> int:
    sizes = {}
    for m, d in PROVEN_CELLS:
        if (m, d) in PAPER_SIZES:
            continue
        t = time.perf_counter()
        sizes[f"{m},{d}"] = reference_size(m, d)
        print(f"({m},{d}) size {sizes[f'{m},{d}']} in {time.perf_counter() - t:.1f} s",
              file=sys.stderr)
    doc = {"method": "m corners + networkx max_weight_clique of the complement "
                     "of the interior conflict graph",
           "networkx": nx.__version__, "sizes": sizes}
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

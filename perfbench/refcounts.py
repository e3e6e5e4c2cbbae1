"""Rebuild the census reference counts without siccert.

Counts the connected graphs in which no two vertices share two
neighbours, one per isomorphism class, with networkx alone:

* n <= 7: filter networkx's atlas of every graph on up to 7 vertices.
* n > 7: grow every class on n vertices by one vertex joined to a
  nonempty set of vertices no two of which share a neighbour, then keep
  one graph per class (Weisfeiler-Lehman hash buckets, then
  nx.is_isomorphic).  Every connected graph has a vertex whose removal
  leaves it connected, and deleting a vertex keeps a graph square-free,
  so the connected classes on n vertices are enough to reach every
  connected class on n + 1.

The classes are grown to n = 11 (about four minutes on one core), the
counts for n = 10 and 11 are compared with OEIS A077269, and the counts
for n = 8..11 are written to census_counts.json.  Usage:

    python3 perfbench/refcounts.py
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import COUNTS_FILE, is_square_free  # noqa: E402

warnings.filterwarnings("ignore", message="The hashes produced")

LAST_N = 11
A077269 = {10: 3389, 11: 18502}


def atlas_classes(n: int) -> list[nx.Graph]:
    return [nx.convert_node_labels_to_integers(g) for g in nx.graph_atlas_g()
            if g.number_of_nodes() == n and nx.is_connected(g)
            and is_square_free(g)]


def attachment_sets(g: nx.Graph) -> list[list[int]]:
    """Nonempty vertex sets with no two members sharing a neighbour."""
    nodes = sorted(g)
    clash = {v: {w for u in g[v] for w in g[u] if w != v} for v in nodes}
    out: list[list[int]] = []

    def rec(start: int, chosen: list[int], blocked: set[int]):
        for k in range(start, len(nodes)):
            v = nodes[k]
            if v in blocked:
                continue
            chosen.append(v)
            out.append(list(chosen))
            rec(k + 1, chosen, blocked | clash[v])
            chosen.pop()

    rec(0, [], set())
    return out


def grow(classes: list[nx.Graph]) -> list[nx.Graph]:
    buckets: dict[str, list[nx.Graph]] = {}
    out: list[nx.Graph] = []
    for g in classes:
        x = g.number_of_nodes()
        for s in attachment_sets(g):
            child = g.copy()
            child.add_edges_from((x, v) for v in s)
            key = nx.weisfeiler_lehman_graph_hash(child, iterations=3)
            bucket = buckets.setdefault(key, [])
            if any(nx.is_isomorphic(child, h) for h in bucket):
                continue
            assert is_square_free(child)
            bucket.append(child)
            out.append(child)
    return out


def main() -> int:
    classes = atlas_classes(7)
    counts: dict[str, int] = {}
    for n in range(8, LAST_N + 1):
        t0 = time.monotonic()
        classes = grow(classes)
        counts[str(n)] = len(classes)
        print(f"n={n}: {len(classes)} classes in {time.monotonic() - t0:.1f} s",
              file=sys.stderr)
        cited = A077269.get(n)
        if cited is not None and cited != len(classes):
            print(f"error: n={n} disagrees with A077269 ({cited})",
                  file=sys.stderr)
            return 1

    data = {"about": "connected square-free graph classes per order, grown "
                     "with networkx from the atlas classes on 7 vertices",
            "counts": counts}
    COUNTS_FILE.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the benchmark workloads.

Ray sets are written as integer vectors (exact) or decimal vectors
(numeric).  Exact copies of a set keep its orthogonality graph as a
labelled graph: the vertex order comes from a fixed panel of
labelings per family, relabelled by a seeded symmetry of the ray set,
and the rays are turned by a seeded exact rational rotation (the Cayley
transform of an integer skew matrix).  The seed therefore changes every
file but not the graph the exact LP works on, so two seeds cost the
same; the panel still spreads that cost over several vertex orders.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

YU_OH = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 1, 1), (1, 0, -1),
    (1, 0, 1), (1, -1, 0), (1, 1, 0), (1, 1, 1), (-1, 1, 1), (1, -1, 1),
    (1, 1, -1),
]
# Cabello, Estebaranz and Garcia-Alcaine (1996): 18 rays in nine bases
CEG18 = [
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0), (0, 1, 0, 0),
    (1, 0, 1, 0), (1, 0, -1, 0), (1, -1, 1, -1), (1, -1, -1, 1),
    (0, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, -1), (1, 0, 0, 1), (1, 0, 0, -1),
    (0, 1, -1, 0), (1, 1, -1, 1), (1, 1, 1, -1), (-1, 1, 1, 1),
]
# Peres (1991): the 24 rays of the two 24-cell orientations
PERES24 = (
    [tuple(int(i == k) for i in range(4)) for k in range(4)]
    + [tuple(1 if i == a else s if i == b else 0 for i in range(4))
       for a, b in itertools.combinations(range(4), 2) for s in (1, -1)]
    + [(1, *s) for s in itertools.product((1, -1), repeat=3)]
)

FAMILIES = {"yu_oh": YU_OH, "ceg18": CEG18, "peres24": PERES24}
YU_OH_Y = Fraction(33, 35)


@dataclass(frozen=True)
class RaySet:
    name: str
    expect: str  # "SIC" | "NOT_SIC" | "UNDECIDED"
    d: int
    vectors: list  # integer tuples (exact) or float tuples (numeric)

    def text(self) -> str:
        head = f"# {self.name}\n{self.d}\n"
        return head + "".join(" ".join(map(repr, v)) + "\n"
                              for v in self.vectors)


def read_fixture_rays(path: Path) -> list[tuple[int, ...]]:
    rows = [ln.split() for ln in path.read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]
    return [tuple(int(x) for x in r) for r in rows[1:]]


def _ray_key(v) -> tuple:
    """Sign-normalized tuple: the first nonzero entry is positive."""
    first = next(x for x in v if x)
    return tuple(x if first > 0 else -x for x in v)


def symmetries(rays) -> list[list[int]]:
    """Vertex maps induced by the signed coordinate permutations that
    map the ray set onto itself; each is an automorphism of its
    orthogonality graph."""
    d = len(rays[0])
    index = {_ray_key(v): i for i, v in enumerate(rays)}
    out = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            alpha = []
            for v in rays:
                img = _ray_key(tuple(signs[a] * v[perm[a]] for a in range(d)))
                if img not in index:
                    break
                alpha.append(index[img])
            else:
                out.append(alpha)
    return out


def cayley_rotation(rng: random.Random, d: int) -> list[list[Fraction]]:
    """Q = (I - S)(I + S)^-1 for an integer skew matrix S with entries
    in -2..2; Q is an exact rational orthogonal matrix."""
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            s[i][j] = Fraction(rng.randint(-2, 2))
            s[j][i] = -s[i][j]
    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    a = [[eye[i][j] + s[i][j] for j in range(d)] + eye[i] for i in range(d)]
    for c in range(d):  # Gauss-Jordan inverse of I + S (never singular)
        p = next(r for r in range(c, d) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(d):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    inv = [row[d:] for row in a]
    q = [[sum((eye[i][k] - s[i][k]) * inv[k][j] for k in range(d))
          for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            dot = sum(q[k][i] * q[k][j] for k in range(d))
            assert dot == (i == j), "Cayley transform is not orthogonal"
    return q


def rotate_exact(q, v) -> tuple[int, ...]:
    """q v, scaled to a primitive integer vector (the same ray)."""
    w = [sum(q[i][k] * v[k] for k in range(len(v))) for i in range(len(v))]
    den = math.lcm(*(x.denominator for x in w))
    ints = [int(x * den) for x in w]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def float_rotation(rng: random.Random, d: int):
    """A generic real rotation: Cayley transform of a random real skew
    matrix, in floating point."""
    import numpy as np

    s = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            s[i, j] = rng.uniform(-1.0, 1.0)
            s[j, i] = -s[i, j]
    eye = np.eye(d)
    return (eye - s) @ np.linalg.inv(eye + s)


def panel_labeling(family: str, j: int) -> list[int]:
    """Fixed vertex order j of a family, the same for every seed."""
    order = list(range(len(FAMILIES[family])))
    random.Random(f"panel/{family}/{j}").shuffle(order)
    return order


def exact_copy(family: str, j: int, seed: int) -> RaySet:
    base = FAMILIES[family]
    rng = random.Random(f"certify/{seed}/{family}/{j}")
    alpha = rng.choice(symmetries(base))
    q = cayley_rotation(rng, len(base[0]))
    vecs = [rotate_exact(q, base[alpha[i]]) for i in panel_labeling(family, j)]
    return RaySet(f"{family}-{j}", "SIC", len(base[0]), vecs)


def numeric_copy(family: str, seed: int) -> RaySet:
    base = FAMILIES[family]
    rng = random.Random(f"certify/{seed}/{family}/float")
    alpha = rng.choice(symmetries(base))
    q = float_rotation(rng, len(base[0]))
    vecs = []
    for i in panel_labeling(family, 0):
        v = q @ [float(x) for x in base[alpha[i]]]
        vecs.append(tuple(float(x) for x in v / math.sqrt(v @ v)))
    return RaySet(f"{family}-float", "UNDECIDED", len(base[0]), vecs)


def rotated(name: str, rays, seed: int) -> RaySet:
    rng = random.Random(f"certify/{seed}/{name}")
    q = cayley_rotation(rng, len(rays[0]))
    return RaySet(name, "NOT_SIC", len(rays[0]),
                  [rotate_exact(q, v) for v in rays])


# certify batch: exact copies per family (one per panel labeling)
CERTIFY_PANELS = {"yu_oh": 6, "ceg18": 2, "peres24": 1}
CERTIFY_NUMERIC = ("yu_oh", "ceg18")


def certify_batch(seed: int, fixtures: Path) -> list[RaySet]:
    batch = [exact_copy(f, j, seed)
             for f, k in CERTIFY_PANELS.items() for j in range(k)]
    batch += [numeric_copy(f, seed) for f in CERTIFY_NUMERIC]
    for name in ("cone_yu_oh_d4", "basis_d3"):
        rays = read_fixture_rays(fixtures / f"{name}.vec")
        batch.append(RaySet(name, "NOT_SIC", len(rays[0]), rays))
        batch.append(rotated(f"{name}-rotated", rays, seed))
    return batch


K4_G6 = "C~"


@dataclass(frozen=True)
class RealizeJob:
    graph6: str
    field: str
    seed: int


def realize_batch(seed: int, fixtures: Path) -> list[RealizeJob]:
    """The eight 13-vertex chi > 3 classes and the 12-vertex class in the
    real field, K4 as a control, and Yu-Oh (the sixth class) again in
    the complex field; one fixed search seed per graph."""
    thirteen = (fixtures / "thirteen_chi4.g6").read_text().split()
    twelve = (fixtures / "twelve_chi4.g6").read_text().split()
    rng = random.Random(f"realize/{seed}")
    plan = [(g, "real") for g in thirteen + twelve + [K4_G6]]
    plan.append((thirteen[5], "complex"))
    return [RealizeJob(g, f, rng.randrange(2 ** 30)) for g, f in plan]


def yu_oh_graph6(fixtures: Path) -> str:
    return (fixtures / "thirteen_chi4.g6").read_text().split()[5]

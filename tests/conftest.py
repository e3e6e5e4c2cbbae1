"""Shared test plumbing: collects acceptance-criterion verdict lines
and echoes them in the terminal summary so they are visible even with
output capture enabled, and holds the oracles that several test
modules check against."""

from siccert.exact import GR_ONE, GR_ZERO
from siccert.graphs import Graph

acceptance_lines: list[str] = []


def record_criterion(num: int, ok: bool, desc: str) -> bool:
    line = f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    acceptance_lines.append(line)
    print(line)
    return ok


def is_independent(g, s: int) -> bool:
    """No edge of g inside the vertex mask s (a mask within the graph)."""
    if s >> g.n:
        raise ValueError("vertex mask names vertices outside the graph")
    return all(not g.rows[v] & s for v in range(g.n) if s >> v & 1)


def assert_passes_checks(g) -> None:
    """g, however it was built, is a Graph that Graph's own checks
    accept and that equals the Graph they build from its rows."""
    assert type(g) is Graph
    checked = Graph(g.n, g.rows)
    assert checked == g and hash(checked) == hash(g)


def random_graph(n: int, p: float, rng) -> Graph:
    """Each pair an edge with probability p; rng is a random.Random or a
    numpy Generator (only its random() is called)."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def random_square_free(n: int, rng) -> Graph:
    """Random edges kept while no two vertices share two neighbors."""
    nbrs = [set() for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    for i, j in pairs[:rng.randint(0, len(pairs))]:
        nbrs[i].add(j)
        nbrs[j].add(i)
        if any(len(nbrs[u] & nbrs[v]) > 1
               for u in range(n) for v in range(u + 1, n)):
            nbrs[i].discard(j)
            nbrs[j].discard(i)
    return Graph(n, tuple(sum(1 << u for u in nb) for nb in nbrs))


def gauss_jordan_nullspace(rows, d: int) -> list:
    """Basis of {x : row · x = 0} by Gauss-Jordan over the Gaussian
    rationals, each row divided by its pivot: the reduced row echelon
    form the integer-row nullspace must reproduce."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = GR_ONE / mat[r][c]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (c for c in range(d) if c not in pivots):
        vec = [GR_ZERO] * d
        vec[fc] = GR_ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)

"""Self-test of the answer checks in checks.py: each accepts a correct
answer from siccert and rejects a corrupted copy of it (a census count
off by one, one certificate weight altered, one obstruction state
entry altered, one realization vector perturbed).

    python3 perfbench/selftest.py      # from the root of a checkout
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import numpy as np

import run
import checks
import inputs


def expect_reject(label: str, fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError as exc:
        print(f"ok: {label} rejected ({exc})")
        return True
    print(f"FAIL: {label} accepted")
    return False


def main() -> int:
    sc = run.load_program()
    ok = True

    n = 8
    text = run.census_call(sc.cli.main, ["enumerate", "--max-n", str(n)])
    counts, _ = checks.parse_census_table(text, n)
    checks.check_counts(counts, n)
    print("ok: census counts accepted")
    ok &= expect_reject("census count off by one", checks.check_counts,
                        {**counts, n: counts[n] + 1}, n)

    rays = inputs.exact_copy("yu_oh", 0, seed=0)
    cert = sc.certify_sic(sc.parse_vector_file(rays.text()))
    checks.check_sic(rays.vectors, cert, inputs.YU_OH_Y)
    print("ok: SIC certificate accepted")
    w = list(cert.w)
    w[0] += 1
    ok &= expect_reject("certificate with one weight altered", checks.check_sic,
                        rays.vectors, dataclasses.replace(cert, w=tuple(w)),
                        inputs.YU_OH_Y)

    cone = inputs.read_fixture_rays(run.FIXTURES / "cone_yu_oh_d4.vec")
    cert = sc.certify_sic(sc.parse_vector_file(
        inputs.RaySet("cone", "NOT_SIC", 4, cone).text()))
    checks.check_not_sic(cone, cert)
    print("ok: NOT_SIC obstruction accepted")
    obs = cert.obstruction
    state = list(obs.state)
    state[0] = state[0] + Fraction(1, 7)
    bad = dataclasses.replace(cert, obstruction=dataclasses.replace(
        obs, state=tuple(state)))
    ok &= expect_reject("obstruction state altered", checks.check_not_sic, cone, bad)

    g6 = inputs.yu_oh_graph6(run.FIXTURES)
    res = sc.find_realization(sc.parse_graph6(g6), 3, restarts=5, seed=0)
    checks.check_realization(g6, 3, res, run.REALIZE_TOL, run.REALIZE_DELTA)
    print("ok: realization accepted")
    v = np.array(res.vectors)
    v[0] += 1e-3
    v[0] /= np.linalg.norm(v[0])
    ok &= expect_reject("realization with one vector perturbed",
                        checks.check_realization, g6, 3,
                        dataclasses.replace(res, vectors=v),
                        run.REALIZE_TOL, run.REALIZE_DELTA)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

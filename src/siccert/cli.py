"""Command-line interface.

Subcommands: enumerate (square-free connected census), graph (exact
graph queries), certify (decide a projector set from a vector file),
realize (numerical orthogonal-representation search), inequality
(emit the certified inequality for a vector file).

Exit codes: 0 success (SIC / found); 1 internal error; 2 bad
configuration or unparsable input; 3 NOT_SIC or degenerate;
4 UNDECIDED or failed.  Identical inputs and seed give byte-identical
output.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .certify import (
    ProjectorSet,
    certify_sic,
    emit_inequality,
    parse_vector_file,
    write_vector_file,
)
from .coloring import chromatic_number, fractional_chromatic_number
from .enumeration import MAX_ENUM_N, enumerate_square_free_connected
from .exact import format_gaussian, format_rational
from .graphs import (
    cone,
    encode_graph6,
    is_connected,
    is_square_free,
    parse_graph6,
)
from .realize import find_realization
from .runner import check_workers

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NEGATIVE = 3
EXIT_UNDECIDED = 4
_EXIT_CODE = {
    "SIC": EXIT_OK, "NOT_SIC": EXIT_NEGATIVE, "UNDECIDED": EXIT_UNDECIDED,
    "found": EXIT_OK, "degenerate": EXIT_NEGATIVE, "failed": EXIT_UNDECIDED,
}


@contextlib.contextmanager
def _output(path: str | None):
    """The file at path, opened for writing and closed afterwards; for
    None or "-", stdout, which stays open."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def cmd_enumerate(args) -> int:
    if not 1 <= args.max_n <= MAX_ENUM_N:
        print(f"error: --max-n must be between 1 and {MAX_ENUM_N}",
              file=sys.stderr)
        return EXIT_CONFIG
    check_workers(args.workers)  # before the output file is truncated
    with _output(args.output) as out:
        if args.chi_gt is None:
            sink = lambda g: print(encode_graph6(g), file=out)
            report = enumerate_square_free_connected(
                args.max_n, sink=sink, workers=args.workers)
        else:
            report = enumerate_square_free_connected(
                args.max_n, chi_gt=args.chi_gt, workers=args.workers)
            for line in report.filtered:
                print(line, file=out)
    for n in sorted(report.counts):
        print(f"{n} {report.counts[n]}")
    print(f"total {report.total}")
    return EXIT_OK


def cmd_graph(args) -> int:
    g = parse_graph6(args.graph6)
    if args.query == "chi":
        print(chromatic_number(g).value)
    elif args.query == "chif":
        print(format_rational(fractional_chromatic_number(g).value))
    elif args.query == "square-free":
        print("true" if is_square_free(g) else "false")
    elif args.query == "connected":
        print("true" if is_connected(g) else "false")
    elif args.query == "cone":
        print(encode_graph6(cone(g)))
    else:  # argparse choices make this unreachable
        return EXIT_CONFIG
    return EXIT_OK


def _load_projectors(args) -> ProjectorSet:
    with open(args.file) as fh:
        text = fh.read()
    mode = "auto"
    if args.exact:
        mode = "exact"
    elif args.numeric:
        mode = "numeric"
    return parse_vector_file(text, mode=mode)


def _print_certificate(cert) -> None:
    print(f"status {cert.status}")
    if cert.status == "SIC":
        print(f"y = {format_rational(cert.y)}")
        for i, wi in enumerate(cert.w):
            print(f"w[{i}] = {format_rational(wi)}")
    elif cert.status == "NOT_SIC":
        obs = cert.obstruction
        state = ", ".join(format_gaussian(x) for x in obs.state)
        print(f"obstruction state = ({state})")
        if obs.independent_set:
            verts = [str(v) for v in range(cert.graph.n)
                     if obs.independent_set >> v & 1]
            print(f"independent set = {{{', '.join(verts)}}}")
            print(f"forced weight sum >= {format_rational(obs.forced_bound)}")
        print(obs.note)
    else:
        print(cert.diagnostics)


def cmd_certify(args) -> int:
    s = _load_projectors(args)
    cert = certify_sic(s, tol=args.tol)
    _print_certificate(cert)
    if cert.status == "SIC":
        print(emit_inequality(s, cert).render())
    return _EXIT_CODE[cert.status]


def cmd_inequality(args) -> int:
    s = _load_projectors(args)
    cert = certify_sic(s, tol=args.tol)
    if cert.status != "SIC":
        print(f"status {cert.status}")
        print("no inequality: certification did not produce SIC",
              file=sys.stderr)
        return _EXIT_CODE[cert.status]
    ineq = emit_inequality(s, cert)
    with _output(args.output) as out:
        print(ineq.render(), file=out)
        print(f"bound = {format_rational(ineq.bound)}", file=out)
    return EXIT_OK


def cmd_realize(args) -> int:
    g = parse_graph6(args.graph6)
    res = find_realization(g, args.dim, field=args.field,
                           restarts=args.restarts, tol=args.tol,
                           delta=args.delta, seed=args.seed,
                           workers=args.workers)
    print(f"status {res.status}")
    print(f"residual = {res.residual:.6e}")
    if res.status == "found":
        s = ProjectorSet.from_numeric(args.dim,
                                      [tuple(v) for v in res.vectors])
        with _output(args.output) as out:
            out.write(write_vector_file(s))
    return _EXIT_CODE[res.status]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="siccert",
        description="state-independent contextuality certification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate",
                        help="census of square-free connected graphs")
    pe.add_argument("--max-n", type=int, required=True,
                    help=f"largest vertex count (1..{MAX_ENUM_N})")
    pe.add_argument("--chi-gt", type=int, default=None, metavar="D",
                    help="only emit graphs with chromatic number > D")
    pe.add_argument("--workers", type=int, default=1)
    pe.add_argument("--output", default=None,
                    help="file for graph6 lines (default stdout)")
    pe.set_defaults(func=cmd_enumerate)

    pg = sub.add_parser("graph", help="exact queries on a graph6 string")
    pg.add_argument("query", choices=["chi", "chif", "square-free",
                                      "connected", "cone"])
    pg.add_argument("graph6")
    pg.set_defaults(func=cmd_graph)

    def add_mode_flags(sp):
        mode = sp.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true",
                          help="require exact rational entries")
        mode.add_argument("--numeric", action="store_true",
                          help="force floating-point interpretation")
        sp.add_argument("--tol", type=float, default=1e-8,
                        help="numeric orthogonality tolerance")

    pc = sub.add_parser("certify",
                        help="decide a projector set from a vector file")
    pc.add_argument("file")
    add_mode_flags(pc)
    pc.set_defaults(func=cmd_certify)

    pi = sub.add_parser("inequality",
                        help="emit the certified inequality for a vector file")
    pi.add_argument("file")
    add_mode_flags(pi)
    pi.add_argument("--output", default=None)
    pi.set_defaults(func=cmd_inequality)

    pr = sub.add_parser("realize",
                        help="search for an orthogonal representation")
    pr.add_argument("graph6")
    pr.add_argument("--dim", type=int, required=True)
    pr.add_argument("--field", choices=["real", "complex"], default="real")
    pr.add_argument("--restarts", type=int, default=50)
    pr.add_argument("--tol", type=float, default=1e-12)
    pr.add_argument("--delta", type=float, default=1e-6)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--workers", type=int, default=1)
    pr.add_argument("--output", default=None,
                    help="file for the found vectors (default stdout)")
    pr.set_defaults(func=cmd_realize)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

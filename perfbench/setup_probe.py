"""One set-up of a workload in a fresh interpreter: import siccert from
the given source directory, then read the input files with the
program's own parsers.  Prints {"import_s": ..., "parse_s": ...}.

    python3 perfbench/setup_probe.py SRC {none,graph6,vec} [FILE ...]
"""

import json
import sys
import time


def main() -> int:
    src, kind, files = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import siccert

    t1 = time.perf_counter()
    for name in files:
        with open(name) as fh:
            text = fh.read()
        if kind == "vec":
            siccert.parse_vector_file(text)
        elif kind == "graph6":
            for line in text.split():
                siccert.parse_graph6(line)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

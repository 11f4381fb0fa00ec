"""Run a fixed corpus of majpat commands in-process against two source trees
and report every command whose stdout, stderr or exit code differs.

    python3 tools/cli_parity.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `majpat` package, such as the
`src` directory of a checkout.  Exits 0 when the two trees agree on every
command and 1 otherwise.
"""
from __future__ import annotations

import contextlib
import difflib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
A008302 = os.path.join(ROOT, "tests", "data", "a008302.txt")
CORPUS = [
    # The brute table on one process and on two, the cores path, and both.
    ("table", "--patterns", "1324", "--max-n", "9", "--parallelism", "1"),
    ("table", "--patterns", "1324", "--max-n", "9", "--parallelism", "2"),
    ("table", "--patterns", "1324", "--max-n", "10", "--parallelism", "2"),
    ("table", "--patterns", "3412,1324", "--max-n", "9", "--parallelism", "2"),
    ("table", "--patterns", "321", "--max-n", "11", "--parallelism", "2"),
    # The last level reads a child's sites with its last letter as a virtual
    # pin, and these heads place letters both above and below it.
    ("table", "--patterns", "2413,3142", "--max-n", "10", "--parallelism", "2"),
    # More shares than a 2-processor host has processors, and a frontier
    # that takes the whole tree.
    ("table", "--patterns", "1324", "--max-n", "9", "--parallelism", "3"),
    ("table", "--patterns", "1324", "--max-n", "4", "--parallelism", "2"),
    # The last two rows are counted at their grandparents: at max_n = 3 the
    # root's children, at 2 the root, and at 1 the root counts its own sites.
    *(("table", "--patterns", "1324", "--max-n", str(n), "--parallelism", str(p))
      for n in (1, 2, 3) for p in (1, 2)),
    # The cap cuts falling children in both of those rows.
    ("table", "--patterns", "2134", "--max-n", "10", "--max-maj", "15", "--parallelism", "2"),
    ("table", "--patterns", "4231", "--max-n", "10"),
    ("table", "--patterns", "2134", "--max-n", "9", "--algorithm", "both"),
    ("table", "--patterns", "21354", "--max-n", "8", "--max-maj", "10"),
    ("table", "--patterns", "2413,3142", "--max-n", "8", "--format", "json"),
    ("table", "--patterns", "3412,1324", "--max-n", "8", "--algorithm", "cores"),
    ("table", "--patterns", "1324", "--max-n", "8", "--max-maj", "12", "--algorithm", "both"),
    ("table", "--patterns", "1432", "--max-n", "9", "--algorithm", "cores"),
    # A cap-2 set: its cores' pairs, two letters in one gap included, are read off masks.
    ("table", "--patterns", "21", "--max-n", "8", "--algorithm", "both"),
    ("table", "--patterns", "132,213", "--max-n", "9", "--algorithm", "both",
     "--parallelism", "2"),
    # Cap-1 and cap-2 sets through the core path with a last row: the cells
    # its nodes two letters short count from masks, under a ceiling too.
    ("table", "--max-n", "7", "--algorithm", "cores"),
    ("table", "--max-n", "7", "--algorithm", "cores", "--max-nodes", "2000"),
    ("table", "--patterns", "12", "--max-n", "8", "--algorithm", "cores"),
    ("table", "--patterns", "21", "--max-n", "8", "--max-maj", "12", "--algorithm", "cores"),
    ("degree", "--patterns", "21", "--maj", "4", "--max-n", "9"),
    ("degree", "--maj", "3", "--max-n", "8"),
    # A length-1 and a length-2 pattern through both paths: the searches that
    # expand and count a node's children place no head letter.
    ("table", "--patterns", "1", "--max-n", "3", "--algorithm", "both"),
    ("table", "--patterns", "12", "--max-n", "8", "--algorithm", "both", "--parallelism", "2"),
    # A 24-letter pattern: its searches nest more loops than one function holds.
    ("table", "--patterns", ",".join(str(v) for v in (2, 1, *range(3, 25))) + ";",
     "--max-n", "5"),
    ("degree", "--patterns", "1324", "--maj", "9"),
    ("degree", "--patterns", "3412,1324", "--maj", "6", "--max-n", "10"),
    ("degree", "--patterns", "123", "--maj", "4"),
    ("degree", "--patterns", "1432", "--maj", "6"),
    ("degree", "--patterns", "1432", "--maj", "7"),
    ("degree", "--patterns", "1324", "--maj", "5", "--max-n", "9", "--algorithm", "brute"),
    # A length-5 pattern through the obstruction route.
    ("degree", "--patterns", "21354", "--maj", "7"),
    # A pattern whose obstruction search records four levels, through the
    # three signature routes: room >= 3 in a table, every signature, and a
    # size budget.
    ("table", "--patterns", "21345", "--max-n", "8", "--algorithm", "both"),
    ("degree", "--patterns", "21345", "--maj", "8"),
    ("degree", "--patterns", "21345", "--maj", "8", "--max-n", "14"),
    # An increasing pattern, whose level-0 obstruction nest places no slot,
    # and the 24-letter pattern, whose obstruction nests go on in inner
    # functions.
    ("degree", "--patterns", "12345", "--maj", "8"),
    ("degree", "--patterns", ",".join(str(v) for v in (2, 1, *range(3, 25))) + ";",
     "--maj", "3"),
    # A magnitude-3 set, whose witness is max_length_core.
    ("degree", "--patterns", "1243", "--maj", "6"),
    ("cores", "--patterns", "1324", "--maj", "7"),
    ("cores", "--patterns", "1324", "--maj", "7", "--format", "json"),
    ("cores", "--patterns", "132,213", "--maj", "6", "--format", "json"),
    ("cores", "--patterns", "2413,3142", "--maj", "6"),
    ("verify-monotonic", "--patterns", "2134", "--n", "7"),
    # Every source of 2143 takes append_max; every source of 1324 expand_at_tail.
    ("verify-monotonic", "--patterns", "2143", "--n", "7"),
    ("verify-monotonic", "--patterns", "1324", "--n", "8"),
    ("verify-monotonic", "--patterns", "1324", "--n", "7", "--max-maj", "12"),
    # A tail of 3, the longest walk back over the slope the injection takes.
    ("verify-monotonic", "--patterns", "21345", "--n", "7"),
    ("verify-monotonic", "--patterns", "21", "--n", "200", "--max-maj", "0"),
    # Sources at the root, and at the root's children.
    ("verify-monotonic", "--patterns", "1324", "--n", "0"),
    ("verify-monotonic", "--patterns", "1324", "--n", "1"),
    # Past the triangle: the walk's cap is n(n + 1)/2, not --max-maj, and
    # each m past it costs one node, so the last of these exits 3.
    ("verify-monotonic", "--patterns", "1324", "--n", "6", "--max-maj", "30"),
    ("verify-monotonic", "--patterns", "21", "--n", "3", "--max-maj", "40"),
    ("verify-monotonic", "--patterns", "21", "--n", "3", "--max-maj", "100000",
     "--max-nodes", "100"),
    # Node ceilings: each run passes at its exact spend T and exits 3 at T - 1.
    ("table", "--max-n", "7", "--max-nodes", "5913"),
    ("table", "--max-n", "7", "--max-nodes", "5912"),
    ("table", "--max-n", "7", "--max-nodes", "5912", "--parallelism", "2"),
    ("table", "--max-n", "6", "--algorithm", "both", "--max-nodes", "1707"),
    ("table", "--max-n", "6", "--algorithm", "both", "--max-nodes", "1706"),
    ("verify-monotonic", "--patterns", "2134", "--n", "5", "--max-nodes", "550"),
    ("verify-monotonic", "--patterns", "2134", "--n", "5", "--max-nodes", "549"),
    ("table", "--patterns", "1324", "--max-n", "8", "--max-maj", "10", "--max-nodes", "4329",
     "--parallelism", "2"),
    ("table", "--patterns", "1324", "--max-n", "8", "--max-maj", "10", "--max-nodes", "4328",
     "--parallelism", "2"),
    ("table", "--patterns", "2413,3142", "--max-n", "8", "--max-maj", "12", "--max-nodes", "4949"),
    ("table", "--patterns", "2413,3142", "--max-n", "8", "--max-maj", "12", "--max-nodes", "4948"),
    # The brute loop's boundaries: at max_n = 1 the root counts its own sites;
    # at 4 on two shares the frontier reaches the last two rows, so shares get
    # seeds one letter short and seeds of full length; and the cap cuts the
    # falling children of the last two rows.
    ("table", "--patterns", "1324", "--max-n", "1", "--max-nodes", "1"),
    ("table", "--patterns", "1324", "--max-n", "1", "--max-nodes", "0"),
    ("table", "--patterns", "1324", "--max-n", "4", "--parallelism", "2", "--max-nodes", "32"),
    ("table", "--patterns", "1324", "--max-n", "4", "--parallelism", "2", "--max-nodes", "31"),
    ("table", "--patterns", "2134", "--max-n", "6", "--max-maj", "4", "--parallelism", "2",
     "--max-nodes", "110"),
    ("table", "--patterns", "2134", "--max-n", "6", "--max-maj", "4", "--parallelism", "2",
     "--max-nodes", "109"),
    # The core walk at n_max = ceiling + 2 and one row further: its nodes
    # two letters short of the last row count their children from masks.
    ("degree", "--patterns", "1324", "--maj", "6", "--max-n", "8", "--max-nodes", "784"),
    ("degree", "--patterns", "1324", "--maj", "6", "--max-n", "8", "--max-nodes", "783"),
    ("degree", "--patterns", "1324", "--maj", "6", "--max-n", "9", "--max-nodes", "1266"),
    ("degree", "--patterns", "1324", "--maj", "6", "--max-n", "9", "--max-nodes", "1265"),
    # A cores table spends a node on every such child; one column only on
    # the children whose columns it reads.
    ("table", "--patterns", "3412,1324", "--max-n", "9", "--algorithm", "cores",
     "--max-nodes", "32744"),
    ("table", "--patterns", "3412,1324", "--max-n", "9", "--algorithm", "cores",
     "--max-nodes", "32743"),
    ("degree", "--patterns", "1324", "--maj", "9", "--max-n", "9", "--max-nodes", "5298"),
    ("degree", "--patterns", "1324", "--maj", "9", "--max-n", "9", "--max-nodes", "5297"),
    # The core walk's depth is min(n_max - 1, ceiling + 1): at n_max =
    # ceiling + 2 its last nodes have room 2, one row further they have
    # room 3 and go through the signature walk.
    ("degree", "--patterns", "1324", "--maj", "9", "--max-n", "11"),
    ("degree", "--patterns", "1324", "--maj", "9", "--max-n", "12"),
    # A cores table of one row, where the root takes the signature walk and
    # spends one node, and of two, where the root counts its children.
    ("table", "--patterns", "3412,1324", "--max-n", "1", "--algorithm", "cores"),
    ("table", "--patterns", "3412,1324", "--max-n", "2", "--algorithm", "cores"),
    ("table", "--patterns", "1324", "--max-n", "1", "--algorithm", "cores", "--max-nodes", "1"),
    ("table", "--patterns", "1324", "--max-n", "1", "--algorithm", "cores", "--max-nodes", "0"),
    # The no-pattern table against the file of its rows 1-6 (41 entries).
    ("check-oeis", "--file", A008302, "--max-n", "6", "--parallelism", "2"),
    # Two rows past the file's end.
    ("check-oeis", "--file", A008302, "--max-n", "8"),
    # Row 1 alone; six rows past the file's end, under a ceiling that only the
    # file's rows fit; and both paths on two shares.
    ("check-oeis", "--file", A008302, "--max-n", "1"),
    ("check-oeis", "--file", A008302, "--max-n", "12", "--max-nodes", "10000"),
    ("check-oeis", "--file", A008302, "--max-n", "6", "--algorithm", "both", "--parallelism", "2"),
    # Invalid input, and an output path in a missing directory, refused
    # before a walk that would exceed its ceiling.
    ("table", "--max-n", "4", "--patterns", "120"),
    ("table", "--max-n", "0"),
    ("table", "--patterns", "1324", "--max-n", "10", "--max-nodes", "1",
     "--output", "/nonexistent/x"),
]


def run_tree(src: str) -> list[tuple[object, str, str]]:
    """Import majpat from src, run every command of the corpus, and unload it."""
    sys.path.insert(0, os.path.abspath(src))
    try:
        from majpat.cli import main
        results = []
        for argv in CORPUS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            results.append((code, out.getvalue(), err.getvalue()))
        return results
    finally:
        sys.path.pop(0)
        for name in [m for m in sys.modules if m == "majpat" or m.startswith("majpat.")]:
            del sys.modules[name]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = []
    for src in argv:
        start = time.perf_counter()
        runs.append(run_tree(src))
        print(f"{src}: {len(CORPUS)} commands in {time.perf_counter() - start:.1f} s")
    differ = 0
    for cmd, old, new in zip(CORPUS, *runs):
        if old == new:
            continue
        differ += 1
        print("differs: majpat " + " ".join(cmd))
        for label, a, b in (("exit code", old[0], new[0]), ("stdout", old[1], new[1]),
                            ("stderr", old[2], new[2])):
            if a != b:
                print(f"  {label}:")
                lines = difflib.unified_diff(str(a).splitlines(), str(b).splitlines(),
                                             lineterm="", n=1)
                print("\n".join("    " + line for line in list(lines)[2:12]))
    print(f"{differ} of {len(CORPUS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print the Python source of every search that `perms.compile_search`
generates for the given pattern sets, so that two trees can be compared with
diff.

    python3 tools/kernel_sources.py SRC PATTERNS...
    python3 tools/kernel_sources.py OLD/src 1324 "3412,1324" > old.txt
    python3 tools/kernel_sources.py src 1324 "3412,1324" > new.txt
    diff old.txt new.txt

SRC is a directory holding the `majpat` package, such as the `src`
directory of a checkout.  Each PATTERNS argument is one pattern set, in the
syntax of `--patterns` ("" for the empty set).  For each member of a set the
tool compiles its `contains`, `contains_through` and obstruction searches,
and then whatever the set's mask searches compile, reached through one
small `maj_table` and one `column_counts`.  Each source is printed once,
under a line naming what compiled it; a search that an earlier argument
already compiled is cached and not printed again.
"""
from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    from majpat import enumeration, perms

    label = [""]

    def recording_exec(source, namespace):
        print(f"# {label[0]}\n{source}\n")
        exec(source, namespace)

    # compile_search looks exec up in its module's globals first.
    perms.exec = recording_exec
    for text in argv[1:]:
        patterns = enumeration.PatternSet.from_text(text)
        for sigma in patterns:
            name = perms.format_perm(sigma)
            word = tuple(range(1, len(sigma) + 1))
            for label[0], search in (
                    (f"contains {name}", lambda: perms.contains(word, sigma)),
                    (f"contains_through {name}", lambda: perms.contains_through(word, sigma, 1)),
                    (f"obstructions {name}", lambda: enumeration._obstruction_search(sigma))):
                search()
        label[0] = f"masks {text!r}"
        enumeration.maj_table(3, 3, patterns)
        enumeration.column_counts(2, patterns, n_max=3)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

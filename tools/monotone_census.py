"""Check the column injection on every non-increasing pattern of length 4.

    python3 tools/monotone_census.py [--out tests/data/monotone_census_n9.json]

Runs `verify_monotonicity` at length n = 9, with every major index, on the 23
patterns of length 4 that have a descent, and writes each report's JSON
(verified, case tally and the column counts at n and n + 1) to one fixture.
This is the paper's first theorem, M_n^m(sigma) <= M_{n+1}^m(sigma), checked
by the injection.  Prints each pattern's time and the total; exits 1 if any
pattern fails.  majpat is imported from the `src` directory next to this
one.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N = 9


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from majpat.monotone import verify_monotonicity
    from majpat.perms import descents, format_perm

    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=ROOT / "tests" / "data" / f"monotone_census_n{N}.json")
    args = parser.parse_args(argv)
    patterns = [p for p in itertools.permutations(range(1, 5)) if descents(p)]
    reports = []
    start = time.perf_counter()
    for sigma in patterns:
        began = time.perf_counter()
        report = verify_monotonicity(sigma, N)
        reports.append(report.to_json_obj())
        print(f"{format_perm(sigma)}: verified={report.verified} "
              f"{time.perf_counter() - began:.2f} s", flush=True)
    total = time.perf_counter() - start
    # One report a line, so that a change to the fixture diffs by pattern.
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in reports)
    args.out.write_text(f'{{"n":{N},"reports":[\n{lines}\n]}}\n')
    failed = sum(not r["verified"] for r in reports)
    print(f"{len(patterns)} patterns at n = {N} in {total:.1f} s, {failed} failed; "
          f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""
Command-line surface.

Exit codes: 0 success, 1 verification or verdict failure, 2 invalid input,
3 resource ceiling exceeded (nodes, memory or recursion depth).  Each
subcommand accepts only the flags it reads.  --max-nodes sets one node
ceiling for the whole run.
"""
from __future__ import annotations

import argparse
import json
import sys

from .asymptotics import Verdict, degree_report
from .enumeration import (
    PatternSet,
    _triangle,
    core_set,
    maj_table,
)
from .decomp import format_profile
from .errors import InvalidInputError, MajpatError, ResourceLimitError, VerificationError
from .monotone import verify_monotonicity
from .oeis import diff_triangle, read_integer_file, rows_holding
from .perms import format_perm

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_table(args: argparse.Namespace) -> int:
    patterns = PatternSet.from_text(args.patterns)
    max_maj = args.max_maj
    if max_maj is None:
        max_maj = _triangle(args.max_n)
    table = maj_table(
        args.max_n, max_maj, patterns,
        algorithm=args.algorithm, parallelism=args.parallelism, max_nodes=args.max_nodes,
    )
    _emit(args, table.to_csv() if args.format == "csv" else table.to_json() + "\n")
    return EXIT_OK


def cmd_degree(args: argparse.Namespace) -> int:
    report = degree_report(
        args.maj, PatternSet.from_text(args.patterns), n_max=args.max_n,
        window=args.window, algorithm=args.algorithm, max_nodes=args.max_nodes,
    )
    _emit(args, json.dumps(report.to_json_obj(), indent=2) + "\n")
    return EXIT_FAILED if report.verdict is Verdict.MISMATCH else EXIT_OK


def cmd_verify_monotonic(args: argparse.Namespace) -> int:
    patterns = PatternSet.from_text(args.patterns)
    if len(patterns) != 1:
        raise InvalidInputError(
            "monotonicity verification takes exactly one pattern; column "
            "monotonicity can fail for multi-pattern sets"
        )
    (sigma,) = patterns
    report = verify_monotonicity(sigma, args.n, args.max_maj, max_nodes=args.max_nodes)
    _emit(args, json.dumps(report.to_json_obj(), indent=2) + "\n")
    return EXIT_OK if report.verified else EXIT_FAILED


def cmd_cores(args: argparse.Namespace) -> int:
    patterns = PatternSet.from_text(args.patterns)
    found = core_set(args.maj, patterns, max_nodes=args.max_nodes)
    cores = found.cores
    witnesses = [[format_profile(p) for p in profiles] for profiles in found.profiles]
    if args.format == "json":
        obj = {
            "schema": 1,
            "maj": args.maj,
            "patterns": patterns.texts(),
            "cores": [
                {
                    "core": format_perm(g),
                    "maj_plus": found.m,
                    "minimal_profiles": profiles,
                }
                for g, profiles in zip(cores, witnesses)
            ],
        }
        _emit(args, json.dumps(obj, indent=2) + "\n")
        return EXIT_OK
    lines = [f"{format_perm(g) or '(empty)'}  maj+={found.m}  "
             f"minimal-profiles: {' '.join(profiles)}" for g, profiles in zip(cores, witnesses)]
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_check_oeis(args: argparse.Namespace) -> int:
    reference = read_integer_file(args.file)
    # The rows past the file's last entry are not computed, only counted as unmatched.
    max_n = min(args.max_n, rows_holding(len(reference)))
    table = maj_table(
        max_n, _triangle(max_n), PatternSet(),
        algorithm=args.algorithm, parallelism=args.parallelism, max_nodes=args.max_nodes,
    )
    diff = diff_triangle(table, reference, args.max_n)
    if diff.mismatch is not None:
        n, m, ours, theirs = diff.mismatch
        _emit(args, f"MISMATCH at (n={n}, m={m}): computed {ours}, file has {theirs}\n")
        return EXIT_FAILED
    if diff.missing_cells:
        _emit(args, f"file too short: {diff.missing_cells} cells unmatched after "
                    f"{diff.matched} matches\n")
        return EXIT_FAILED
    _emit(args, f"match: {diff.matched} entries\n")
    return EXIT_OK


COMMANDS = {
    "table": cmd_table,
    "degree": cmd_degree,
    "verify-monotonic": cmd_verify_monotonic,
    "cores": cmd_cores,
    "check-oeis": cmd_check_oeis,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad flag or value as one line."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"majpat: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Subparsers are made by the parent's class, so every command errs alike.
    parser = _Parser(
        prog="majpat",
        description="Major-index distributions over pattern-avoiding permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, patterns=True, algorithms=(), parallelism=False):
        # The first algorithm listed is the default.
        if patterns:
            p.add_argument("--patterns", default="",
                           help="pattern list, e.g. '1324' or '3412,1324' (';'-separated "
                                "when a pattern itself needs commas)")
        if algorithms:
            p.add_argument("--algorithm", choices=list(algorithms), default=algorithms[0])
        if parallelism:
            p.add_argument("--parallelism", type=int, default=1,
                           help="shares of the exhaustive search, walked by at most as many "
                                "processes as processors (default 1)")
        p.add_argument("--max-nodes", type=int, default=None,
                       help="search node ceiling for the whole run (default 10^8)")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("table", help="emit the counts table")
    common(p, algorithms=("brute", "cores", "both"), parallelism=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-maj", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("degree", help="predict and detect a column's degree")
    common(p, algorithms=("cores", "brute"))
    p.add_argument("--maj", type=int, required=True)
    p.add_argument("--max-n", type=int, default=None,
                   help="series length for detection (default: past the exact onset)")
    p.add_argument("--window", type=int, default=3)

    p = sub.add_parser("verify-monotonic", help="check the column injection exhaustively")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-maj", type=int, default=None)

    p = sub.add_parser("cores", help="list admissible cores for a major index")
    common(p)
    p.add_argument("--maj", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-oeis", help="diff the no-pattern table against a local file")
    common(p, patterns=False, algorithms=("brute", "cores", "both"), parallelism=True)
    p.add_argument("--file", required=True)
    p.add_argument("--max-n", type=int, required=True)
    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ResourceLimitError as exc:
        print(f"majpat: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MemoryError, RecursionError) as exc:
        what = "memory" if isinstance(exc, MemoryError) else "Python recursion depth"
        print(f"majpat: resource limit: {what} exhausted", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"majpat: verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (MajpatError, OSError) as exc:
        print(f"majpat: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

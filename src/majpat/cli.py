"""
Command-line surface.

Exit codes: 0 success, 1 verification or verdict failure, 2 invalid input,
3 resource ceiling exceeded.  MAJPAT_MAX_NODES and MAJPAT_PARALLELISM
override the corresponding defaults.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .asymptotics import Verdict, degree_report
from .enumeration import (
    PatternSet,
    core_set,
    maj_table,
    minimal_avoiding_profiles,
    parallelism_default,
)
from .decomp import format_profile
from .errors import InvalidInputError, MajpatError, ResourceLimitError, VerificationError
from .monotone import verify_monotonicity
from .oeis import diff_triangle, read_integer_file
from .perms import format_perm, maj_plus, parse_perm

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    patterns: PatternSet
    max_n: int | None = None
    max_maj: int | None = None
    algorithm: str = "brute"
    fmt: str = "csv"
    parallelism: int = 1
    window: int = 3
    max_nodes: int | None = None
    core_limit: int | None = None
    output: str | None = None


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_table(config: RunConfig) -> int:
    max_maj = config.max_maj
    if max_maj is None:
        max_maj = config.max_n * (config.max_n - 1) // 2
    table = maj_table(
        config.max_n, max_maj, config.patterns,
        algorithm=config.algorithm, parallelism=config.parallelism,
        max_nodes=config.max_nodes, core_len_limit=config.core_limit,
    )
    _emit(config, table.to_csv() if config.fmt == "csv" else table.to_json() + "\n")
    return EXIT_OK


def cmd_degree(config: RunConfig, m: int) -> int:
    report = degree_report(
        m, config.patterns, n_max=config.max_n, window=config.window,
        algorithm="cores" if config.algorithm == "both" else config.algorithm,
        core_len_limit=config.core_limit, max_nodes=config.max_nodes,
    )
    _emit(config, json.dumps(report.to_json_obj(), indent=2) + "\n")
    return EXIT_FAILED if report.verdict is Verdict.MISMATCH else EXIT_OK


def cmd_verify_monotonic(config: RunConfig, n: int) -> int:
    if len(config.patterns) != 1:
        raise InvalidInputError(
            "monotonicity verification takes exactly one pattern; column "
            "monotonicity can fail for multi-pattern sets"
        )
    (sigma,) = config.patterns
    report = verify_monotonicity(sigma, n, config.max_maj, max_nodes=config.max_nodes)
    _emit(config, json.dumps(report.to_json_obj(), indent=2) + "\n")
    return EXIT_OK if report.verified else EXIT_FAILED


def cmd_cores(config: RunConfig, m: int) -> int:
    result = core_set(m, config.patterns, core_len_limit=config.core_limit,
                      max_nodes=config.max_nodes)
    if config.fmt == "json":
        obj = {
            "schema": 1,
            "maj": m,
            "patterns": config.patterns.texts(),
            "cores": [
                {
                    "core": format_perm(g),
                    "maj_plus": maj_plus(g),
                    "minimal_profiles": [
                        format_profile(p)
                        for p in minimal_avoiding_profiles(g, config.patterns)
                    ],
                }
                for g in result.cores
            ],
        }
        _emit(config, json.dumps(obj, indent=2) + "\n")
        return EXIT_OK
    lines = []
    for g in result.cores:
        profiles = " ".join(
            format_profile(p) for p in minimal_avoiding_profiles(g, config.patterns)
        )
        lines.append(f"{format_perm(g) or '(empty)'}  maj+={maj_plus(g)}  minimal-profiles: {profiles}")
    _emit(config, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_check_oeis(config: RunConfig, path: str, max_n: int) -> int:
    reference = read_integer_file(path)
    table = maj_table(
        max_n, max_n * (max_n - 1) // 2, PatternSet(),
        algorithm=config.algorithm, parallelism=config.parallelism,
        max_nodes=config.max_nodes, core_len_limit=config.core_limit,
    )
    diff = diff_triangle(table, reference)
    if diff.mismatch is not None:
        n, m, ours, theirs = diff.mismatch
        _emit(config, f"MISMATCH at (n={n}, m={m}): computed {ours}, file has {theirs}\n")
        return EXIT_FAILED
    if diff.missing_cells:
        _emit(config, f"file too short: {diff.missing_cells} cells unmatched after "
                      f"{diff.matched} matches\n")
        return EXIT_FAILED
    _emit(config, f"match: {diff.matched} entries\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majpat",
        description="Major-index distributions over pattern-avoiding permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, algorithms=("brute", "cores", "both"), default_alg="brute"):
        p.add_argument("--patterns", default="",
                       help="pattern list, e.g. '1324' or '3412,1324' (';'-separated "
                            "when a pattern itself needs commas)")
        p.add_argument("--algorithm", choices=list(algorithms), default=default_alg)
        p.add_argument("--parallelism", type=int, default=None,
                       help="worker processes (default MAJPAT_PARALLELISM or 1)")
        p.add_argument("--max-nodes", type=int, default=None,
                       help="search node ceiling (default MAJPAT_MAX_NODES or builtin)")
        p.add_argument("--core-limit", type=int, default=None,
                       help="opt-in cap on enumerated core length "
                            "(default MAJPAT_MAX_CORE_LEN or none)")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("table", help="emit the counts table")
    common(p)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-maj", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("degree", help="predict and detect a column's degree")
    common(p, algorithms=("cores", "brute"), default_alg="cores")
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
    common(p)
    p.add_argument("--file", required=True)
    p.add_argument("--max-n", type=int, required=True)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        patterns=PatternSet.from_text(args.patterns),
        max_n=getattr(args, "max_n", None),
        max_maj=getattr(args, "max_maj", None),
        algorithm=args.algorithm,
        fmt=getattr(args, "format", "csv"),
        parallelism=args.parallelism if args.parallelism is not None else parallelism_default(),
        window=getattr(args, "window", 3),
        max_nodes=args.max_nodes,
        core_limit=args.core_limit,
        output=args.output,
    )
    if config.parallelism < 1:
        raise InvalidInputError(f"parallelism must be >= 1, got {config.parallelism}")
    if config.core_limit is not None and config.core_limit < 0:
        raise InvalidInputError(f"--core-limit must be non-negative, got {config.core_limit}")
    if args.command == "table":
        if config.max_n < 1:
            raise InvalidInputError(f"--max-n must be >= 1, got {config.max_n}")
        return cmd_table(config)
    if args.command == "degree":
        return cmd_degree(config, args.maj)
    if args.command == "verify-monotonic":
        return cmd_verify_monotonic(config, args.n)
    if args.command == "cores":
        return cmd_cores(config, args.maj)
    if args.command == "check-oeis":
        return cmd_check_oeis(config, args.file, args.max_n)
    raise InvalidInputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ResourceLimitError as exc:
        print(f"majpat: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"majpat: verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (InvalidInputError, OSError) as exc:
        print(f"majpat: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MajpatError as exc:
        print(f"majpat: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for majpat: fixed CLI workloads timed end to end, and a traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload brute-table --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

Every job is a fresh interpreter (bench/job.py) that imports majpat from
./src and runs one `majpat` command.  With --trace 0 the run repeats rounds
of jobs and set-up probes for --seconds and reports medians of the
end-to-end metrics; with --trace 1 it runs each job once untraced and once
traced and reports the per-layer metrics.  Times are scaled to a reference
host speed sampled inside every job (see calibrate.py).  Every job's output is checked
against an independent reference.  The seed only orders the jobs and probes:
majpat has no randomness, and symmetric images of a pattern are not
comparable loads.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every job exited 0 and
passed its output check, and 2 when ./src/majpat is missing.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
JOB = Path(__file__).resolve().parent / "job.py"
COUNTS_FILE = ROOT / ".bench_build" / "trace_counts.json"

MIN_ROUNDS = 3
PROBES_PER_ROUND = 2
JOB_TIMEOUT_S = 150
# Median calibrate.tick() time on the 2-vCPU Xeon box this benchmark was
# built on, in its faster phase: times are reported as if every job ran at
# that speed.  Never change it; it rescales every time metric.
TICK_REF_S = 0.0006

# Avoiders of 1324 by length, n = 1..10 (OEIS A061552).
A061552 = (1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950)
# Avoiders of 1234 by length, n = 8 (OEIS A005802); 2134 is Wilf-equivalent
# (reverse-complement of 1243, itself equivalent to 1234).
A005802_8 = 15767
# Injection case tally for 2134 at n = 8, recorded from the seed code.
CASES_2134_8 = {"append_max": 0, "expand_at_tail": 6529, "insert_min_into_slope": 9238}


def check_brute_table(out: str, ref: str | None) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    sums = []
    for n, row in enumerate(rows[1:], start=1):
        cells = [int(c) for c in row[1:] if c]
        if int(row[0]) != n or len(cells) != n * (n - 1) // 2 + 1:
            return f"row {n} is malformed"
        sums.append(sum(cells))
    if tuple(sums) != A061552:
        return f"row sums {sums} differ from A061552"
    return None


def check_cores_table(out: str, ref: str | None) -> str | None:
    return None if out == ref else "core-path table differs from the brute-path table"


def check_degree_column(out: str, ref: str | None) -> str | None:
    report = json.loads(out)
    detected = report["detected"]
    if (report["verdict"], report["prediction"], detected["degree"], detected["onset"]) != (
            "match", {"kind": "exact", "degree": 3}, 3, 9):
        return f"unexpected degree report: {report}"
    return None


def check_verify_monotonic(out: str, ref: str | None) -> str | None:
    report = json.loads(out)
    if not report["verified"] or report["cases"] != CASES_2134_8:
        return f"injection not verified or case tally changed: {report['cases']}"
    if sum(pair[0] for pair in report["counts"].values()) != A005802_8:
        return "avoider count at n = 8 differs from A005802"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str, str | None], str | None]
    # The same job on one process, when argv uses more; traced runs use it.
    serial_argv: tuple[str, ...] | None = None
    # The brute-path command whose output is the reference for this one.
    reference_argv: tuple[str, ...] | None = None


WORKLOADS = {w.name: w for w in (
    Workload("brute-table",
             ("table", "--patterns", "1324", "--max-n", "10", "--parallelism", "2"),
             check_brute_table,
             serial_argv=("table", "--patterns", "1324", "--max-n", "10", "--parallelism", "1")),
    Workload("cores-table",
             ("table", "--patterns", "3412,1324", "--max-n", "9", "--algorithm", "cores"),
             check_cores_table,
             reference_argv=("table", "--patterns", "3412,1324", "--max-n", "9",
                             "--algorithm", "brute")),
    Workload("degree-column", ("degree", "--patterns", "1324", "--maj", "9"),
             check_degree_column),
    Workload("verify-monotonic", ("verify-monotonic", "--patterns", "2134", "--n", "8"),
             check_verify_monotonic),
)}

# Counts that must repeat exactly between traced runs of the same source.
DETERMINISTIC_COUNTS = (
    "perms.contains_last.calls", "perms.avoids.calls", "perms.contains.calls",
    "perms.major_index.calls", "decomp.compose.calls", "enumeration.brute.nodes",
    "enumeration.core_scan.candidates", "enumeration.core_scan.cores",
    "enumeration.generate_avoiders.yielded", "poly.calls", "monotone.injection.calls",
)


class Failure(Exception):
    pass


def job_env() -> dict[str, str]:
    """The caller's environment without settings that change a job:
    MAJPAT_* ceilings and parallelism, and interpreter PYTHON* switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MAJPAT_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict[str, str]) -> tuple[float, dict]:
    """Run job.py with args; returns (set-up seconds, its report)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(JOB), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except BaseException as exc:  # a timeout, or the benchmark itself stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise Failure(f"job {args} timed out after {JOB_TIMEOUT_S} s") from None
        raise
    if proc.returncode != 0 or not out.strip():
        raise Failure(f"job {args} exited {proc.returncode}: {err.strip()[-500:]}")
    report = json.loads(out.splitlines()[-1])
    if Path(report["majpat"]).resolve().parent.parent != SRC:
        raise Failure(f"job imported majpat from {report['majpat']}, not {SRC}")
    return report["ready"] - t0, report


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest 5%.  The host's two speed phases
    make tick times bimodal, so a median would jump between the phases; the
    mean moves with the share of the job spent in each."""
    values = sorted(values)
    cut = len(values) // 20
    return statistics.fmean(values[cut:len(values) - cut])


def speeds(report: dict) -> tuple[float, float]:
    """Factors that scale a job's CPU time and its wall time to the reference
    host speed.  CPU time is spent in every process of the job, so its factor
    comes from all samples; wall time waits for the process that ran longest
    (the most samples, as they are taken per CPU time), so its factor comes
    from that process alone."""
    per_process = report["ticks"].values()
    every = [t for ticks in per_process for t in ticks]
    longest = max(per_process, key=len)
    return TICK_REF_S / trimmed_mean(every), TICK_REF_S / trimmed_mean(longest)


def scaled_wall(report: dict) -> float:
    return report["wall"] * speeds(report)[1]


class Runner:
    """Runs jobs for one benchmark invocation and tallies failures."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.attempted = 0
        self.errors: list[str] = []
        self.references: dict[str, str] = {}

    def probe(self) -> float:
        setup, _ = spawn(["probe"], self.env)
        return setup

    def prepare(self, workload: Workload) -> None:
        """Compute the workload's reference output, outside any timed region."""
        if workload.reference_argv is None or workload.name in self.references:
            return
        _, report = spawn(["run", *workload.reference_argv], self.env)
        if report["exit"] != 0:
            raise Failure(f"reference for {workload.name} exited {report['exit']}")
        self.references[workload.name] = report["stdout"]

    def job(self, workload: Workload, argv, mode: str = "run") -> tuple[float, dict] | None:
        """One checked job; None when it failed (wrong exit code or output)."""
        self.attempted += 1
        try:
            setup, report = spawn([mode, *argv], self.env)
            if report["exit"] != 0:
                raise Failure(f"exit code {report['exit']}: {report['error'] or ''}")
            problem = workload.check(report["stdout"], self.references.get(workload.name))
            if problem:
                raise Failure(problem)
            if not report["ticks"]:
                raise Failure("no host-speed samples")
        except (Failure, ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"{workload.name} {mode}: {exc}")
            return None
        return setup, report


def timed_run(runner: Runner, workloads: list[Workload], rng: random.Random,
              seconds: float) -> dict[str, dict[str, float]]:
    """Rounds of one job per workload plus set-up probes, in seeded order,
    until `seconds` have passed (at least MIN_ROUNDS).

    Times are scaled to the reference host speed by the factors `speeds`
    gives for each job; set-up time by the run's median CPU-time factor."""
    raw = {w.name: {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "cpu_speed": [],
                    "wall_speed": []} for w in workloads}
    setups: list[float] = []
    rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        steps = list(workloads) + [None] * PROBES_PER_ROUND
        rng.shuffle(steps)
        for workload in steps:
            if workload is None:
                setups.append(runner.probe())
                continue
            result = runner.job(workload, workload.argv)
            if result is None:
                continue
            setup, report = result
            setups.append(setup)
            s = raw[workload.name]
            s["wall_s"].append(report["wall"])
            s["cpu_s"].append(report["cpu"])
            s["peak_rss_mb"].append(report["rss_kib"] / 1024)
            cpu_speed, wall_speed = speeds(report)
            s["cpu_speed"].append(cpu_speed)
            s["wall_speed"].append(wall_speed)
        rounds += 1
    cpu_speeds = [f for s in raw.values() for f in s["cpu_speed"]]
    metrics = {}
    for name, s in raw.items():
        print(f"jobs {name} " + json.dumps(dict(s, setup_s=setups)))
        if not s["wall_s"]:
            continue
        metrics[name] = {
            "wall_s": statistics.median(t * f for t, f in zip(s["wall_s"], s["wall_speed"])),
            "cpu_s": statistics.median(t * f for t, f in zip(s["cpu_s"], s["cpu_speed"])),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"]),
            "setup_s": statistics.median(setups) * statistics.median(cpu_speeds),
        }
    return metrics


def layer_metrics(trace: dict, speed: float, traced_wall: float, serial_wall: float,
                  wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced job.  Its span times are scaled by
    `speed`, the traced job's own factor; the walls come scaled."""
    spans, counts = trace["spans"], trace["counts"]

    def entries(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1] * speed

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2] * speed

    def ratio(a, b):
        return a / b if b else 0.0

    nodes = counts.get("brute.nodes", 0)
    return {
        "perms.contains_last.calls": entries("perms.contains_last"),
        "perms.contains_last.self_s": self_s("perms.contains_last"),
        "perms.avoids.calls": entries("perms.avoids"),
        "perms.avoids.self_s": self_s("perms.avoids"),
        "perms.avoids.true_ratio": ratio(counts.get("avoids.true", 0), entries("perms.avoids")),
        "perms.contains.calls": entries("perms.contains"),
        "perms.contains.self_s": self_s("perms.contains"),
        "perms.major_index.calls": entries("perms.major_index"),
        "perms.major_index.self_s": self_s("perms.major_index"),
        "decomp.compose.calls": entries("decomp.compose"),
        "decomp.compose.self_s": self_s("decomp.compose"),
        "enumeration.brute.nodes": nodes,
        "enumeration.brute.self_s": self_s("enumeration.brute"),
        "enumeration.brute.nodes_per_s": ratio(nodes, serial_wall),
        "enumeration.brute.accept_ratio": ratio(nodes, entries("perms.contains_last")),
        "enumeration.parallel.serial_s": serial_wall,
        "enumeration.parallel.speedup": ratio(serial_wall, wall),
        "enumeration.core_scan.candidates": counts.get("core_scan.candidates", 0),
        "enumeration.core_scan.cores": counts.get("core_scan.cores", 0),
        "enumeration.core_set.incl_s": incl("enumeration.core_set"),
        "enumeration.cores.self_s": self_s("enumeration.cores"),
        "enumeration.eventual_polynomial.incl_s": incl("enumeration.eventual_polynomial"),
        "enumeration.major_count_series.incl_s": incl("enumeration.major_count_series"),
        "enumeration.generate_avoiders.yielded": counts.get("generate_avoiders.yielded", 0),
        "enumeration.generate_avoiders.self_s": self_s("enumeration.generate_avoiders"),
        "poly.calls": entries("poly"),
        "poly.self_s": self_s("poly"),
        "asymptotics.detect_degree.self_s": self_s("asymptotics.detect_degree"),
        "asymptotics.predicted_degree.self_s": self_s("asymptotics.predicted_degree"),
        "monotone.injection.calls": entries("monotone.injection"),
        "monotone.injection.self_s": self_s("monotone.injection"),
        "monotone.verify.self_s": self_s("monotone.verify"),
        "cli.self_s": traced_wall - trace["top_s"] * speed,
        "trace.overhead_ratio": ratio(traced_wall, serial_wall),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "majpat").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_counts_repeat(workload: str, metrics: dict[str, float]) -> str | None:
    """Compare the deterministic counts with the last traced run of the same
    source and interpreter, kept under .bench_build/, then record them."""
    key = f"{workload} {source_digest()} {platform.python_version()}"
    counts = {k: metrics[k] for k in DETERMINISTIC_COUNTS}
    try:
        seen = json.loads(COUNTS_FILE.read_text())
    except (FileNotFoundError, ValueError):
        seen = {}
    previous = seen.get(key)
    if previous is not None and previous != counts:
        changed = sorted(k for k in counts if previous.get(k) != counts[k])
        return f"{workload}: traced counts changed between runs of the same code: {changed}"
    seen[key] = counts
    COUNTS_FILE.parent.mkdir(exist_ok=True)
    tmp = COUNTS_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, COUNTS_FILE)
    return None


def traced_run(runner: Runner, workloads: list[Workload],
               rng: random.Random) -> dict[str, dict[str, float]]:
    """Per workload: the job untraced, on one process untraced when it uses
    more, and traced on one process, in seeded order."""
    metrics = {}
    for workload in workloads:
        serial_argv = workload.serial_argv or workload.argv
        steps = ["run", "trace"] + (["serial"] if workload.serial_argv else [])
        rng.shuffle(steps)
        reports = {}
        for step in steps:
            argv = workload.argv if step == "run" else serial_argv
            result = runner.job(workload, argv, "trace" if step == "trace" else "run")
            if result is not None:
                reports[step] = result[1]
        if len(reports) < len(steps):
            continue
        wall = scaled_wall(reports["run"])
        serial_wall = scaled_wall(reports["serial"]) if "serial" in reports else wall
        traced = reports["trace"]
        metrics[workload.name] = layer_metrics(traced["trace"], speeds(traced)[1],
                                               scaled_wall(traced), serial_wall, wall)
        problem = check_counts_repeat(workload.name, metrics[workload.name])
        if problem:
            runner.errors.append(problem)
    return metrics


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn(), which kills the running job's group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "majpat" / "cli.py").is_file():
        print(f"bench: no majpat sources under {SRC}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    rng = random.Random(args.seed)
    runner = Runner(job_env())
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_rev": git_rev(), "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}
    print("meta " + json.dumps(meta))
    try:
        runner.probe()  # fills the bytecode cache; not a sample
        for workload in workloads:
            runner.prepare(workload)
        if args.trace:
            per_workload = traced_run(runner, workloads, rng)
        else:
            per_workload = timed_run(runner, workloads, rng, args.seconds)
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    for name, values in per_workload.items():
        if values.keys() != units.keys():
            runner.errors.append(f"{name}: metrics {sorted(values.keys() ^ units.keys())} "
                                 "differ from BENCHMARK.json")
        prefix = f"{name}." if len(workloads) > 1 else ""
        for key, value in values.items():
            unit = units.get(key, "?")
            metrics[prefix + key] = {"value": value, "unit": unit}
            print(f"{name:17} {key:40} {value!r} {unit}")
    for error in runner.errors:
        print(f"bench: FAILED {error}", file=sys.stderr)
    failed = len(runner.errors)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

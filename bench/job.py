"""Run one majpat CLI job in this fresh interpreter and print its cost as JSON.

    python3 job.py probe            import majpat.cli, report when ready, exit
    python3 job.py run ARGS...      also run `majpat ARGS...` untraced
    python3 job.py trace ARGS...    also run it with every layer traced

The ready stamp is `time.perf_counter()` (CLOCK_MONOTONIC, shared by all
processes), so the parent that spawned this interpreter can subtract its own
spawn stamp to get the set-up time.  While a job runs, `calibrate.Sampler`
samples the host's speed in its process and in the workers it forks.
"""
import sys
import time

import majpat.cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402


def _usage():
    """CPU seconds and peak RSS in KiB of this process and its reaped workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_maxrss + kids.ru_maxrss


def main(argv):
    mode, cli_args = argv[0], argv[1:]
    report = {"ready": READY, "majpat": majpat.cli.__file__}
    if mode == "probe":
        print(json.dumps(report))
        return 0
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    sampler = calibrate.Sampler()
    out = io.StringIO()
    error = None
    sampler.start()
    cpu0, _ = _usage()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = majpat.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # report any crash as a failed job
        code, error = 1, traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu1, rss_kib = _usage()
    report.update(ticks=sampler.stop(), exit=code, wall=wall, cpu=cpu1 - cpu0, rss_kib=rss_kib,
                  stdout=out.getvalue(), error=error)
    if tracer is not None:
        report["trace"] = {"spans": tracer.spans, "counts": dict(tracer.counts),
                           "top_s": tracer.top_s}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

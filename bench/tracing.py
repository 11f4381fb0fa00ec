"""Per-layer tracing of majpat from outside the package.

Spans are recorded around the calls into each layer's public functions, by
replacing each function in the namespace of every module that calls it (its
import sites).  Calls a module makes to its own helpers stay unwrapped unless
the layer is a module-internal entry point (the brute walker, the core scan).

Every span is aggregated in memory as it closes: entries, inclusive time and
self time, where self time is the span's duration minus the time its child
spans cover.  Counters are taken at the same boundaries.  Traced times include
the tracer's own cost; compare them with an untraced run of the same job.
"""
from __future__ import annotations

import inspect
import itertools
import sys
from collections import Counter
from time import perf_counter

# (home module, attribute, span name, wrap the home module's own calls too)
LAYER_FUNCTIONS = (
    ("perms", "contains_ending_at_last", "perms.contains_last", False),
    ("perms", "avoids", "perms.avoids", False),
    ("perms", "contains", "perms.contains", False),
    ("perms", "major_index", "perms.major_index", False),
    ("decomp", "compose", "decomp.compose", False),
    ("enumeration", "_brute_fill", "enumeration.brute", True),
    ("enumeration", "_core_rows", "enumeration.cores", True),
    ("enumeration", "core_set", "enumeration.core_set", True),
    ("enumeration", "eventual_polynomial", "enumeration.eventual_polynomial", True),
    ("enumeration", "major_count_series", "enumeration.major_count_series", True),
    ("enumeration", "maj_table", "enumeration.maj_table", False),
    ("asymptotics", "predicted_degree", "asymptotics.predicted_degree", True),
    ("asymptotics", "detect_degree", "asymptotics.detect_degree", True),
    ("asymptotics", "degree_report", "asymptotics.degree_report", False),
    ("monotone", "monotone_injection", "monotone.injection", True),
    ("monotone", "verify_monotonicity", "monotone.verify", False),
)

POLY_METHODS = ("of", "constant", "binomial", "__call__", "__add__", "__sub__",
                "scaled", "to_pairs", "from_pairs", "__str__")


class Tracer:
    """Aggregated spans and counters for one traced job."""

    def __init__(self):
        # name -> [entries from another span, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.top_s = 0.0  # time covered by spans with no parent span
        self._stack: list[list] = []  # open spans: [child seconds, name]

    def wrap(self, name, fn, after=None):
        """fn with a span named name around every call; after(args, result)
        runs on return to update counters."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack or stack[-1][1] != name:
                stat[0] += 1
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if after is not None:
                after(args, result)
            return result

        return traced

    def innermost(self) -> str | None:
        return self._stack[-1][1] if self._stack else None


def _patch_import_sites(home, attr, replacement, include_home):
    original = getattr(home, attr)
    for name, module in list(sys.modules.items()):
        if not name.startswith("majpat") or module is None:
            continue
        if module is home and not include_home:
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


class _CountingItertools:
    """Stand-in for enumeration's `itertools` that counts core-scan candidates."""

    def __init__(self, counts: Counter):
        self._counts = counts

    def __getattr__(self, attr):
        return getattr(itertools, attr)

    def permutations(self, *args):
        counts = self._counts
        for perm in itertools.permutations(*args):
            counts["core_scan.candidates"] += 1
            yield perm


def install(tracer: Tracer) -> None:
    """Wrap every layer of the imported majpat package for this process."""
    import majpat.enumeration as enumeration
    import majpat.monotone as monotone
    import majpat.poly as poly

    counts = tracer.counts
    modules = {name: sys.modules[f"majpat.{name}"] for name in
               ("perms", "decomp", "enumeration", "asymptotics", "monotone")}

    def avoids_after(args, result):
        counts["avoids.true"] += bool(result)

    def brute_after(args, result):
        if args[1]:  # the root call carries the empty prefix
            counts["brute.nodes"] += 1

    def core_set_after(args, result):
        counts["core_scan.cores"] += len(result.cores)

    after = {"perms.avoids": avoids_after, "enumeration.brute": brute_after,
             "enumeration.core_set": core_set_after}
    for home, attr, name, include_home in LAYER_FUNCTIONS:
        module = modules[home]
        wrapped = tracer.wrap(name, getattr(module, attr), after.get(name))
        _patch_import_sites(module, attr, wrapped, include_home)

    enumeration.itertools = _CountingItertools(counts)

    # A core of the maj_table core scan is a candidate with at least one
    # avoiding signature; the empty core is not a scan candidate.
    signatures = enumeration._avoiding_signatures

    def counted_signatures(gamma, patterns, **kwargs):
        found = signatures(gamma, patterns, **kwargs)
        if not gamma or tracer.innermost() != "enumeration.cores":
            return found

        def first_counted():
            for i, c in enumerate(found):
                if i == 0:
                    counts["core_scan.cores"] += 1
                yield c

        return first_counted()

    enumeration._avoiding_signatures = counted_signatures

    # A span around each step of the avoider stream generate_avoiders
    # returns; the containment checks inside a step are its child spans.
    stream = monotone.generate_avoiders
    step = tracer.wrap("enumeration.generate_avoiders", next)

    def traced_stream(*args, **kwargs):
        it = stream(*args, **kwargs)
        while True:
            try:
                item = step(it)
            except StopIteration:
                return
            counts["generate_avoiders.yielded"] += 1
            yield item

    monotone.generate_avoiders = traced_stream

    cls = poly.Polynomial
    for attr in POLY_METHODS:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap("poly", raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap("poly", raw))

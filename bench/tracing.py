"""Span tracing around the public functions of the library's modules.

Every public function defined in a layer module is replaced by a wrapper in
every namespace that holds it: ``from .x import f`` copies the binding, so
rebinding ``x.f`` alone would miss calls such as ``conditions.reduced_homology``
or ``cli.sigma_verdict``.  Each call records a span (name, start, end, parent,
command id) in memory; ``laurent_divmod`` only counts calls.  A signal-driven
sampler attributes CPU time to the module of the innermost frame, which is
how time spent in ``fractions`` becomes visible.
"""

from __future__ import annotations

import importlib
import inspect
import signal
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "graphs", "characters", "homology", "conditions", "verdicts",
          "laurent", "salvetti")
# Called hundreds of thousands of times per pass: a span each would dominate
# the measurement and the memory, so it only counts calls and useful calls.
DIVMOD = "laurent.laurent_divmod"
SAMPLE_BUCKETS = LAYERS + ("fractions", "other")
SAMPLE_INTERVAL_S = 0.001


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def _complex_key(c) -> tuple:
    return (c.vertex_order, tuple(c.simplices(d) for d in range(c.dimension + 1)))


class Tracer:
    """Records spans, work counters and CPU samples while installed; one
    tracer serves one pass, and may be installed around each command."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, command id]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.samples: Counter = Counter()
        self.command = -1
        self._complexes: set = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._bucket_of: dict[str, str] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"artinsigma.{layer}") for layer in LAYERS}
        namespaces = [sys.modules["artinsigma"], *modules.values()]
        for layer, mod in modules.items():
            for attr, f in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(f) \
                        or f.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._divmod_counter(f) if name == DIVMOD else self._span(name, f)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is f:
                            setattr(ns, key, wrapper)
                            self._restore.append((ns, key, f))
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for ns, key, f in reversed(self._restore):
            setattr(ns, key, f)
        self._restore = []

    def _span(self, name: str, f):
        spans, stack, observe, clock = self.spans, self._stack, self._observe, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(index)
            try:
                result = f(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            observe(name, args, result)
            return result

        return wrapper

    def _divmod_counter(self, f):
        def wrapper(*args, **kwargs):
            result = f(*args, **kwargs)
            self.counts[DIVMOD + ".calls"] += 1
            if not result[0].is_zero():
                self.counts[DIVMOD + ".useful"] += 1
            return result

        return wrapper

    # -- work counters ----------------------------------------------------

    def _observe(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "homology.integer_invariant_factors":
            counts[name + ".cells"] += args[1] * args[2]
        elif name == "homology.reduced_homology":
            self._complexes.add(_complex_key(args[0]))
            counts[name + ".distinct"] = len(self._complexes)
        elif name == "homology.has_cone_vertex":
            counts[name + ".hits"] += bool(result)
        elif name.startswith("conditions.strong_"):
            counts["conditions.witnesses"] += len(result.witnesses)
        elif name == "verdicts.homotopic_sigma_verdict":
            counts[name + ".unknown"] += result.status == "UNKNOWN"
        elif name == "laurent.smith_normal_form":
            m = args[0]
            counts[name + ".cells"] += m.nrows * m.ncols
            span = max((e.span for row in m.entries for e in row if not e.is_zero()), default=0)
            self.maxima[name + ".max_entry_span"] = max(
                self.maxima[name + ".max_entry_span"], span)

    # -- sampling ---------------------------------------------------------

    def _sample(self, signum, frame) -> None:
        filename = frame.f_code.co_filename if frame is not None else ""
        bucket = self._bucket_of.get(filename)
        if bucket is None:
            path = Path(filename)
            if path.parent.name == "artinsigma" and path.stem in LAYERS:
                bucket = path.stem
            elif path.name == "fractions.py":
                bucket = "fractions"
            else:
                bucket = "other"
            self._bucket_of[filename] = bucket
        self.samples[bucket] += 1

    # -- summaries --------------------------------------------------------

    def function_self_times(self) -> Counter:
        """Self time per function ("layer.name"), summed over all recorded spans."""
        out: Counter = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span[0]] += own
        return out

"""Tracing for the benchmark's traced run.

One table names the public functions to time, by module.  `install`
wraps each of them wherever the `wpi` package refers to it (modules import
functions by name, so every module attribute bound to the original is
replaced), and `uninstall` puts the originals back.  A function missing
from the program is reported as absent, not as an error.

Spans carry a name, start, end and parent and are kept in memory until
the run writes them out.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_sampled(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps, count = int(a["steps"]), int(a["count"])
    tracer.counters["markov.transitions_sampled"] += steps * count
    key = (getattr(a["model"], "name", id(a["model"])), int(a["seed"]))
    tracer.sampled[key].append((count, steps))


def _note_lz_bits(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if "estimator" in a and str(getattr(a["estimator"], "value", a["estimator"])) != "lz-proxy":
        return
    tracer.counters["complexity.lz_bits"] += len(a["x"].bits) + (len(a["y"].bits) if "y" in a else 0)


def _note_bundle(tracer, fn, args, kwargs, result):
    tracer.counters["report.bundle_bytes"] += sum(Path(p).stat().st_size for p in result)


def _conditional_span(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    lz = str(getattr(a["estimator"], "value", a["estimator"])) == "lz-proxy"
    return "complexity.lz" if lz else "complexity.conditional"


#: (module, attribute, span name, hook).  The span name may be a function
#: of the call's arguments; a name starting with "#" makes the entry a
#: call counter without spans, for functions called too often to span.
TABLE = (
    ("config", "ingest_config", "config.ingest", None),
    ("markov", "sample_trajectories", "markov.sample", _note_sampled),
    ("markov", "transition_counts", "markov.counts", None),
    ("markov", "stationary_distribution", "markov.stationary", None),
    ("complexity", "complexity_exact", "complexity.exact", None),
    ("complexity", "conditional_complexity", _conditional_span, _note_lz_bits),
    ("complexity", "complexity_lz", "complexity.lz", _note_lz_bits),
    ("machine", "ReferenceMachine.shortest_program", "machine.search", None),
    ("machine", "ReferenceMachine.run", "#machine.programs_run", None),
    ("bounds", "ift_check", "bounds.ift", None),
    ("bounds", "markov_tail_check", "bounds.tail", None),
    ("bounds", "coupled_bound_suite", "bounds.coupled", None),
    ("bounds", "efficiency_bound_check", "#bounds.pair_checks", None),
    ("bounds", "adaptivity_bound_check", "#bounds.pair_checks", None),
    ("report", "simulate_section", "report.simulate", None),
    ("report", "bounds_section", "report.bounds", None),
    ("report", "score_section", "report.score", None),
    ("report", "compare_section", "report.compare", None),
    ("report", "write_bundle", "report.write", _note_bundle),
)

PACKAGE = "wpi"

#: Span names whose metric is self time (duration minus child spans).
SELF_TIMED = ("report.",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.finished: list[list] = []  # spans of earlier rounds
        self.counters: dict[str, float] = defaultdict(float)
        self.sampled: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        self.absent = []
        for module, attr, name, hook in TABLE:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            if isinstance(name, str) and name.startswith("#"):
                wrapper = self._counted(fn, name[1:])
            else:
                wrapper = self._spanned(fn, name, hook)
            if path:  # a method: replace it on its class
                self._restore.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, fn = self._restore.pop()
            setattr(owner, key, fn)

    def _spanned(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(fn, args, kwargs)
            span = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        """Start a new round; the spans so far are kept for `write`."""
        offset = len(self.finished)
        self.finished += [[n, s, e, p + offset if p >= 0 else -1]
                          for n, s, e, p in self.spans]
        self.spans.clear()
        self.counters.clear()
        self.sampled.clear()

    def span_metrics(self) -> dict[str, float]:
        """Per-name time (self time for SELF_TIMED names) and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - (child_time[i] if name.startswith(SELF_TIMED) else 0.0)
            totals[name] += own
            calls[name] += 1
        return {**{f"{k}_s": v for k, v in totals.items()},
                **{f"{k}_calls": float(v) for k, v in calls.items()}}

    def useful_transition_ratio(self) -> float:
        """Distinct (model, seed, trajectory, step) transitions over those produced.

        Every call samples the rectangle trajectory < count, step < steps of
        its (model, seed) stream; the union of such rectangles is summed
        column by column.
        """
        produced = self.counters.get("markov.transitions_sampled", 0.0)
        if not produced:
            return 0.0
        distinct = 0
        for rects in self.sampled.values():
            for k in range(max(steps for _, steps in rects)):
                distinct += max(count for count, steps in rects if steps > k)
        return distinct / produced

    def write(self, path: Path, t0: float) -> None:
        self.reset()
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.finished]
        path.write_text(json.dumps({"absent": self.absent, "spans": rows}) + "\n")

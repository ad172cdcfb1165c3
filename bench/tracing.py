"""Out-of-program tracing: wraps public functions of the linkperiod
modules, records one span per call and accumulates self time per layer.

A span is (name, start, end, parent index).  Self time is a span's
duration minus the durations of its direct children; children of one
span never overlap (one thread), so no time is counted twice however
deeply wrapped functions nest.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

#: (module, function) -> layer metric the function's self time adds to.
LAYERS = {
    ("diagram", "parse_braid"): "diagram.parse_s",
    ("diagram", "parse_pd"): "diagram.parse_s",
    ("diagram", "pd_from_braid"): "diagram.pd_from_braid_s",
    ("skein", "homfly"): "skein.homfly_s",
    ("skein", "quantum_sln"): "skein.specialize_s",
    ("skein", "jones"): "skein.specialize_s",
    ("skein", "alexander"): "skein.specialize_s",
    ("skein", "p0_part"): "skein.specialize_s",
    ("statemodel", "invariant_statesum"): "statemodel.statesum_s",
    ("statemodel", "bracket"): "statemodel.statesum_s",
    ("criteria", "knot_candidates"): "criteria.knot_candidates_s",
    ("criteria", "link_candidates"): "criteria.link_candidates_s",
    ("laurent", "reduce"): "laurent.reduce_s",
    ("classical", "traczyk_jones_check"): "classical.s",
    ("classical", "traczyk_p0_candidates"): "classical.s",
    ("classical", "murasugi_candidates"): "classical.s",
}
ROOT = "cli.self_s"
TIME_METRICS = sorted(set(LAYERS.values()) | {ROOT})
COUNT_METRICS = ("skein.homfly_calls", "skein.homfly_crossings",
                 "statemodel.statesum_calls", "criteria.link_tuples",
                 "laurent.reduce_calls")


def _size(d) -> int:
    """Crossing count of a PlanarDiagram or letter count of a BraidWord."""
    return len(getattr(d, "crossings", None) or getattr(d, "letters", ()))


class Tracer:
    """Span recorder.  `install` wraps the functions wherever linkperiod
    modules look them up; `uninstall` puts the originals back."""

    def __init__(self):
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []     # [span index, start, child time]
        self.self_s = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.link_hits = 0
        self._patched: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}

    def _enter(self, metric: str) -> None:
        idx = len(self.span_name)
        self.span_name.append(self.name_id.setdefault(metric, len(self.name_id)))
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append([idx, time.perf_counter(), 0.0])

    def _exit(self, metric: str) -> None:
        end = time.perf_counter()
        idx, start, child = self.stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end
        self.self_s[metric] += (end - start) - child
        if self.stack:
            self.stack[-1][2] += end - start

    def span(self, metric: str, fn, *args, **kwargs):
        self._enter(metric)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(metric)

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "homfly":
            self.counts["skein.homfly_calls"] += 1
            self.counts["skein.homfly_crossings"] += _size(args[0])
        elif name == "invariant_statesum":
            self.counts["statemodel.statesum_calls"] += 1
        elif name == "reduce":
            self.counts["laurent.reduce_calls"] += 1
        elif name == "link_candidates":
            bound = self._signatures[name].bind(*args, **kwargs).arguments
            self.counts["criteria.link_tuples"] += bound["p"] ** bound["m"]
            self.link_hits += len(result)

    def _wrapper(self, name: str, metric: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(metric, fn, *args, **kwargs)
            self._count(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace each traced function in every module of the package
        that holds it, so `from .diagram import parse_pd` callers see the
        wrapper too."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and k.split(".")[0] == "linkperiod"]
        for (mod, name), metric in LAYERS.items():
            original = getattr(sys.modules[f"linkperiod.{mod}"], name, None)
            if original is None:
                continue
            self._signatures[name] = inspect.signature(original)
            wrapped = self._wrapper(name, metric, original)
            for m in modules:
                if vars(m).get(name) is original:
                    self._patched.append((m, name, original))
                    setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": list(self.name_id),
                       "span": {"name": self.span_name.tolist(),
                                "start": self.span_start.tolist(),
                                "end": self.span_end.tolist(),
                                "parent": self.span_parent.tolist()}}, fh)

"""Span tracing of crowdsim layers, applied from outside the package.

`Tracer.patched()` replaces each public function of the PATCHES table with
a wrapper that records a span (name, start, end, parent span, command id)
while a CLI command is open, and restores the originals on exit.  Names
are patched where the caller looks them up: a function bound with
`from .geometry import first_wall_crossing` is wrapped in the importing
module, not only in `crowdsim.geometry`.  Spans stay in memory until
`write()`; `summarise()` turns one command group into per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


def _forward_name(args, kwargs) -> str:
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "network.forward.train" if train else "network.forward.eval"


def _rows(args, kwargs, result) -> int:
    return int(args[1].shape[0])


def _count(args, kwargs, result) -> int:
    return len(result)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


# (owner, attribute, span name or name function, amount function or None)
PATCHES = [
    ("crowdsim.simulate", "extract_step", "features.extract_step", None),
    ("crowdsim.ingest", "extract_step", "features.extract_step", None),
    ("crowdsim.features", "extract_social", "features.extract_social", None),
    ("crowdsim.features", "wall_points_in_disk", "features.wall_points_in_disk", None),
    ("crowdsim.features", "extract_visual", "features.extract_visual", None),
    ("crowdsim.features", "ray_cast_batch", "geometry.ray_cast_batch", None),
    ("crowdsim.geometry", "first_wall_crossing", "geometry.first_wall_crossing", None),
    ("crowdsim.simulate", "first_wall_crossing", "geometry.first_wall_crossing", None),
    ("crowdsim.social_force", "first_wall_crossing", "geometry.first_wall_crossing", None),
    ("crowdsim.simulate", "point_in_module", "geometry.point_in_module", None),
    ("crowdsim.social_force", "point_in_module", "geometry.point_in_module", None),
    ("crowdsim.ingest", "point_in_module", "geometry.point_in_module", None),
    ("crowdsim.simulate", "segment_crossing", "geometry.segment_crossing", None),
    ("crowdsim.social_force", "segment_crossing", "geometry.segment_crossing", None),
    ("crowdsim.network:VelocityPredictor", "forward", _forward_name, None),
    ("crowdsim.network:VelocityPredictor", "backward", "network.backward", None),
    ("crowdsim.network:VelocityPredictor", "predict", "network.predict", _rows),
    ("crowdsim.network:Adam", "step", "network.adam_step", None),
    ("crowdsim.cli", "train", "network.train", None),
    ("crowdsim.simulate:Simulator", "step", "simulate.step", None),
    ("crowdsim.cli", "sf_run", "social_force.sf_run", None),
    ("crowdsim.social_force", "sf_acceleration", "social_force.sf_acceleration", None),
    ("crowdsim.social_force", "desired_direction", "social_force.desired_direction", None),
    ("crowdsim.cli", "parse_trajectories", "ingest.parse_trajectories", None),
    ("crowdsim.cli", "build_samples", "ingest.build_samples", _count),
    ("crowdsim.cli", "samples_to_arrays", "ingest.samples_to_arrays", None),
    ("crowdsim.cli", "evaluate_run", "metrics.evaluate_run", None),
    ("crowdsim.cli", "fundamental_diagram", "metrics.fundamental_diagram", None),
    ("crowdsim.cli", "write_csv", "io.write_csv", _file_bytes),
    ("crowdsim.cli", "write_json", "io.write_json", None),
    ("crowdsim.cli", "save_checkpoint", "io.save_checkpoint", None),
    ("crowdsim.cli", "load_checkpoint", "io.load_checkpoint", None),
]


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None          # span_id of the enclosing span
    command: int                # shared by every span of one CLI command
    name: str
    start: float
    end: float
    amount: int = 0             # rows, samples or bytes, where the layer has one


class Tracer:
    """Records spans while a command is open; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._command: int | None = None
        self._commands = 0

    def _wrap(self, fn, name, amount):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._command is None:
                return fn(*args, **kwargs)
            return tracer._record(name(args, kwargs) if callable(name) else name,
                                  fn, args, kwargs, amount)
        return traced

    def _record(self, name, fn, args, kwargs, amount):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self._command, name, 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if amount is not None:
            span.amount = amount(args, kwargs, result)
        return result

    @contextmanager
    def patched(self):
        """Install every wrapper of PATCHES; names that no longer exist are listed in .missing."""
        undo = []
        try:
            for spec, attr, name, amount in PATCHES:
                owner = _owner(spec)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{spec}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(fn, name, amount))
                undo.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    @contextmanager
    def command(self, name: str):
        """Open the root span of one CLI command; yields its command id."""
        cid = self._commands
        self._commands += 1
        root = Span(len(self.spans), None, cid, name, 0.0, 0.0)
        self.spans.append(root)
        self._stack.append(root.span_id)
        self._command = cid
        root.start = perf_counter()
        try:
            yield cid
        finally:
            root.end = perf_counter()
            self._stack.pop()
            self._command = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children of a span run one after another inside it (one thread), so the
    covered part is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    return {s.span_id: (s.end - s.start) - covered.get(s.span_id, 0.0) for s in spans}


@dataclass(slots=True)
class LayerTotals:
    calls: int = 0
    s: float = 0.0          # inclusive, outermost spans of the name only
    self_s: float = 0.0
    amount: int = 0


def summarise(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-name totals of a group of spans."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    totals: dict[str, LayerTotals] = {}
    for s in spans:
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.self_s += selfs[s.span_id]
        t.amount += s.amount
        nested = False
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            t.s += s.end - s.start
    return totals

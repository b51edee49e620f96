"""In-memory spans around the public calls into each spamsim layer.

A :class:`Tracer` replaces module attributes with timing wrappers for the
duration of a ``with tracer.installed(targets):`` block and restores them on
exit.  Every span records its name, layer, start, end, parent and run id; spans
stay in memory until the run writes them out.  All wrapped entry points are
called from the benchmark's main thread (the engine's worker threads only run
chunk code, which is not wrapped), so one span stack suffices.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module.attribute`` becomes span ``name``.

    ``describe(args, kwargs, result)`` returns extra span attributes, such as
    the shots a ``run_experiment`` call simulated.
    """

    module: object
    attribute: str
    name: str
    layer: str
    describe: Callable[[tuple, dict, object], dict] | None = None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, layer, parent, self.run_id,
                      time.perf_counter(), attrs=dict(attrs))
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, target: Target, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(target.name, target.layer) as record:
                result = func(*args, **kwargs)
                if target.describe is not None:
                    record.attrs.update(target.describe(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        saved = []
        try:
            for target in targets:
                original = getattr(target.module, target.attribute)
                saved.append((target.module, target.attribute, original))
                setattr(target.module, target.attribute, self.wrap(target, original))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, []), key=lambda s: s.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result[span.id] = span.duration - covered
    return result


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it, in creation order."""
    inside = {root.id}
    members = []
    for span in spans:
        if span.id == root.id or span.parent in inside:
            inside.add(span.id)
            members.append(span)
    return members


def problems(spans: list[Span]) -> list[str]:
    """Structural faults: unknown parents, children outside their parent,
    mixed run ids, or spans that end before they start."""
    by_id = {span.id: span for span in spans}
    found = []
    for span in spans:
        if span.end < span.start:
            found.append(f"span {span.id} {span.name} ends before it starts")
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            found.append(f"span {span.id} {span.name} has unknown parent {span.parent}")
            continue
        if span.start < parent.start or span.end > parent.end:
            found.append(f"span {span.id} {span.name} is not inside its parent {parent.id}")
        if span.run_id != parent.run_id:
            found.append(f"span {span.id} {span.name} has another run id than its parent")
    return found

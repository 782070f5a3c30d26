"""Spans around calls into the public functions of each cosetcodes layer.

The tracer wraps the functions listed in ``TARGETS`` while it is installed:
every module attribute of the package that refers to one of them is
replaced by a wrapper, so calls between layers are seen as well as calls
from the benchmark.  Scalar field arithmetic (``Field.add``, ``Field.pow``
and the lookup tables) is deliberately not wrapped; it runs inside inner
loops and its time counts toward the caller.  Spans stay in memory and
are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# layer -> public functions wrapped while tracing ("Class.method" for methods)
TARGETS = {
    "galois": ("make_field", "subfield_power_basis", "nth_root_of_unity",
               "Field.subfield_view"),
    "cosets": ("compute_cosets", "euclidean_dual_family", "hermitian_dual_family"),
    "codes": ("field_for_table", "generator_matrix"),
    "linalg": ("rank_and_rref", "rank", "row_space_equal", "nullspace",
               "pow_entrywise", "gram_is_zero", "min_distance_exhaustive"),
    "duality": ("euclidean_dual", "hermitian_dual"),
    "quantum": ("derive_quantum", "search"),
}
LAYERS = tuple(TARGETS)


def _work(name: str, args, kwargs, result) -> dict:
    """Work counts recorded on a span, read from its arguments and result."""
    if name == "rank_and_rref":
        m = args[0]
        return {"cells": m.rows * m.cols}
    if name == "gram_is_zero":
        g1, g2 = args[0], args[1]
        return {"products": g1.rows * g2.rows * g1.cols}
    if name == "generator_matrix":
        return {"rows": result.mat.rows, "entries": result.mat.rows * result.mat.cols}
    if name == "min_distance_exhaustive":
        return {"codewords": result.enumerated, "jobs": kwargs.get("jobs", 1)}
    if name == "search":
        return {"nodes": result.nodes, "reports": len(result.reports)}
    if name == "make_field":
        return {"field_id": id(result), "elements": result.order}
    return {}


@dataclass
class Span:
    id: int
    parent: int | None
    job: str | None
    layer: str
    name: str
    start: float = 0.0
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "job": self.job,
                "layer": self.layer, "name": self.name,
                "start": self.start, "end": self.end, "work": self.work}


class Tracer:
    """Records one span per wrapped call; nesting gives each span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(id=len(self.spans),
                        parent=self._stack[-1] if self._stack else None,
                        job=self.job, layer=layer, name=name)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.work = _work(name, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        import cosetcodes  # noqa: F401  (loads every layer module)

        modules = [m for k, m in sys.modules.items()
                   if k == "cosetcodes" or k.startswith("cosetcodes.")]
        restore = []
        for layer, names in TARGETS.items():
            home = sys.modules[f"cosetcodes.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(layer, meth, orig))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(layer, name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)

    @contextmanager
    def job_scope(self, job: str):
        """Tag the spans recorded in the block with one job identifier."""
        self.job = job
        try:
            yield
        finally:
            self.job = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in child:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}

"""In-memory span tracer and the wrappers that attach it to atc's layers.

A span is (id, name, parent, thread, start, end, attrs). The parent comes
from a thread-local stack, so spans opened in ATC_THREADS worker threads
never corrupt the stack of the thread that submitted them; the pool that
`atc.cli` uses is swapped for one that hands the submitter's open span to
each task, so chunk spans nest under `cli.evaluate_queries`.

Wrappers replace module attributes at the names atc's own callers look up
(for example `atc.trainer.loss_and_grads`, the name `trainer.train` calls).
`instrument` restores every original on exit, and reports a name that no
longer exists instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import statistics
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _AllocPeak:
    """tracemalloc is on only while at least one measured call is open.
    Concurrent calls share one tracer, so each reads the peak of everything
    allocated since the first of them began."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0

    def enter(self) -> None:
        with self._lock:
            if self._open == 0:
                tracemalloc.start()
            self._open += 1

    def exit(self) -> int:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._open -= 1
            if self._open == 0:
                tracemalloc.stop()
            return peak


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._alloc = _AllocPeak()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        sp = Span(sid, name, stack[-1] if stack else None,
                  threading.get_ident(), time.perf_counter(), attrs=attrs)
        stack.append(sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def adopt(self, parent: int | None, fn):
        """Run fn in another thread with `parent` as its enclosing span."""
        @functools.wraps(fn)
        def run(*args, **kwargs):
            stack = self._stack()
            if parent is not None:
                stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                if parent is not None:
                    stack.pop()
        return run

    def wrap(self, fn, name: str, measure=None, alloc: bool = False):
        """`measure(args, kwargs, result)` returns extra span attributes.
        With `alloc`, the first call through this wrapper records its
        tracemalloc peak as `peak_bytes`; only the first, because
        tracemalloc also slows every Python allocation inside the call."""
        unsampled = [alloc]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                with self._lock:
                    sample, unsampled[0] = unsampled[0], False
                if sample:
                    self._alloc.enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if sample:
                        sp.attrs["peak_bytes"] = self._alloc.exit()
                if measure is not None:
                    sp.attrs.update(measure(args, kwargs, result))
                return result
        return traced

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn),
                                      *args, **kwargs)
        return TracedPool

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _rows(i):
    return lambda args, kwargs, result: {"rows": int(args[i].shape[0])}


def _file_bytes(i):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[i])}


def _adam_elems(args, kwargs, result):
    return {"elems": int(sum(p.size for p in args[0].values()))}


def _cache_bytes(args, kwargs, result):
    return {"bytes": int(sum(v.nbytes for v in vars(result).values()
                             if hasattr(v, "nbytes")))}


# (module, attribute callers look up, span name, measure, record alloc peak)
HOOKS = [
    ("atc.cli", "main", "cli.main", None, False),
    ("atc.cli", "evaluate_queries", "cli.evaluate_queries", _rows(1), False),
    ("atc.trainer", "train", "trainer.train", _rows(1), False),
    ("atc.trainer", "adam_step", "trainer.adam_step", _adam_elems, False),
    ("atc.trainer", "save_checkpoint", "trainer.save_checkpoint",
     _file_bytes(1), False),
    ("atc.trainer", "load_checkpoint", "trainer.load_checkpoint",
     _file_bytes(0), False),
    ("atc.trainer", "apply_checkpoint", "trainer.apply_checkpoint", None,
     False),
    ("atc.trainer", "loss_and_grads", "model.loss_and_grads", _rows(1), True),
    ("atc.trainer", "predict_batch", "model.predict_batch", _rows(1), True),
    ("atc.model", "predict_batch", "model.predict_batch", _rows(1), True),
    ("atc.model", "condition_forward", "conditionnet.condition_forward",
     lambda a, k, r: {"rows": int(r[0].shape[0]) if r[0].ndim == 2 else 1},
     False),
    ("atc.model", "condition_backward", "conditionnet.condition_backward",
     None, False),
    ("atc.cli", "build_visual_cache", "caches.build_visual_cache",
     _cache_bytes, False),
    ("atc.cli", "build_textual_cache", "caches.build_textual_cache", None,
     False),
    ("atc.dataio", "read_embeddings", "dataio.read_embeddings",
     _file_bytes(0), False),
    ("atc.dataio", "sample_episode", "dataio.sample_episode", None, False),
    ("atc.dataio", "write_embeddings", "dataio.write_embeddings",
     _file_bytes(1), False),
    ("atc.dataio", "synth_dataset", "dataio.synth_dataset", None, False),
    ("atc.dataio", "l2_normalize_rows", "numerics.l2_normalize_rows", None,
     False),
]


@contextlib.contextmanager
def instrument(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook, and swap the pool `atc.cli` evaluates with, for the
    duration of the block; yields the `module.attribute` names not found."""
    targets = [(mod, attr, functools.partial(tracer.wrap, name=name,
                                             measure=measure, alloc=alloc))
               for mod, attr, name, measure, alloc in hooks]
    targets.append(("atc.cli", "ThreadPoolExecutor",
                    lambda original: tracer.pool_class()))
    saved = []
    missing = []
    try:
        for mod_name, attr, replace in targets:
            try:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                missing.append(f"{mod_name}.{attr}")
                continue
            saved.append((mod, attr, original))
            setattr(mod, attr, replace(original))
        yield missing
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that the union of
    its children's intervals covers (children may overlap when they ran on
    several threads)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out


# Published per-layer metrics: (name, unit, better). Figures describe one
# set-up plus one round of the op mix (the median over traced rounds).
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.evaluate_queries.s", "s", "lower"),
    ("cli.evaluate_queries.parallel_eff", "ratio", "higher"),
    ("trainer.train.self_s", "s", "lower"),
    ("trainer.adam_step.s", "s", "lower"),
    ("trainer.adam_step.calls", "count", "lower"),
    ("trainer.adam_step.elems", "count", "lower"),
    ("trainer.save_checkpoint.s", "s", "lower"),
    ("trainer.save_checkpoint.bytes", "bytes", "lower"),
    ("trainer.load_checkpoint.s", "s", "lower"),
    ("trainer.load_checkpoint.bytes", "bytes", "lower"),
    ("trainer.apply_checkpoint.s", "s", "lower"),
    ("model.loss_and_grads.self_s", "s", "lower"),
    ("model.loss_and_grads.calls", "count", "lower"),
    ("model.loss_and_grads.rows", "rows", "lower"),
    ("model.loss_and_grads.peak_mb", "MB", "lower"),
    ("model.predict_batch.train_self_s", "s", "lower"),
    ("model.predict_batch.eval_self_s", "s", "lower"),
    ("model.predict_batch.rows", "rows", "lower"),
    ("model.predict_batch.peak_mb", "MB", "lower"),
    ("conditionnet.condition_forward.s", "s", "lower"),
    ("conditionnet.condition_forward.calls", "count", "lower"),
    ("conditionnet.condition_forward.rows", "rows", "lower"),
    ("conditionnet.condition_backward.s", "s", "lower"),
    ("conditionnet.condition_backward.calls", "count", "lower"),
    ("caches.build_visual_cache.s", "s", "lower"),
    ("caches.build_visual_cache.bytes", "bytes", "lower"),
    ("caches.build_textual_cache.s", "s", "lower"),
    ("dataio.read_embeddings.s", "s", "lower"),
    ("dataio.read_embeddings.calls", "count", "lower"),
    ("dataio.read_embeddings.bytes", "bytes", "lower"),
    ("dataio.sample_episode.s", "s", "lower"),
    ("dataio.write_embeddings.s", "s", "lower"),
    ("dataio.write_embeddings.bytes", "bytes", "lower"),
    ("dataio.synth_dataset.s", "s", "lower"),
    ("numerics.l2_normalize_rows.s", "s", "lower"),
    ("numerics.l2_normalize_rows.calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.missing_names", "count", "lower"),
]

_PEAKS = ("model.loss_and_grads.peak_mb", "model.predict_batch.peak_mb")


def layer_totals(spans: list[Span], threads: int) -> dict[str, float]:
    """Sums per `<span name>.<s|self_s|calls|rows|bytes|elems>` and peaks,
    with `model.predict_batch` split by whether `trainer.train` encloses it,
    plus the busy and capacity seconds behind `parallel_eff`."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def under_train(s: Span) -> bool:
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == "trainer.train":
                return True
            p = by_id[p].parent
        return False

    t: dict[str, float] = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    for s in spans:
        n = s.name
        if n == "model.predict_batch":
            if under_train(s):
                add(f"{n}.train_self_s", selfs[s.id])
                continue
            add(f"{n}.eval_self_s", selfs[s.id])
        add(f"{n}.s", s.duration)
        add(f"{n}.self_s", selfs[s.id])
        add(f"{n}.calls", 1)
        for k in ("rows", "bytes", "elems"):
            if k in s.attrs:
                add(f"{n}.{k}", s.attrs[k])
        if "peak_bytes" in s.attrs:
            key = f"{n}.peak_mb"
            t[key] = max(t.get(key, 0.0), s.attrs["peak_bytes"] / 2**20)
        if n == "cli.evaluate_queries":
            kids = [c for c in spans if c.parent == s.id
                    and c.name == "model.predict_batch"]
            pooled = any(c.thread != s.thread for c in kids)
            add("cli.evaluate_queries.busy_s", sum(c.duration for c in kids))
            add("cli.evaluate_queries.capacity_s",
                (threads if pooled else 1) * s.duration)
    return t


def layer_metrics(setup: dict[str, float], rounds: list[dict[str, float]],
                  overhead_ratio: float, missing: int) -> dict[str, float]:
    """One set-up plus the median traced round, as the PER_LAYER figures."""
    keys = set(setup).union(*rounds)
    combined = {}
    for k in keys:
        mid = statistics.median(r.get(k, 0.0) for r in rounds)
        if k in _PEAKS:
            combined[k] = max(setup.get(k, 0.0), mid)
        else:
            combined[k] = setup.get(k, 0.0) + mid
    cap = combined.get("cli.evaluate_queries.capacity_s", 0.0)
    combined["cli.evaluate_queries.parallel_eff"] = (
        combined.get("cli.evaluate_queries.busy_s", 0.0) / cap if cap else 0.0)
    combined["trace.overhead_ratio"] = overhead_ratio
    combined["trace.missing_names"] = float(missing)
    return {name: combined.get(name, 0.0) for name, _, _ in PER_LAYER}

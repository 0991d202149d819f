"""In-memory span recorder and self-time analysis.

A `Tracer` wraps functions so that each call records one span: name, start,
end, parent span, the thread it ran on, an optional work count (episodes,
bytes, flops, ...) and whether it raised. Spans live in per-thread arrays
while the traced run is going and are written to one `.npz` file by `dump`.
All spans of a run share the tracer's run id.

`self_times` turns a span table into per-span self time: the span's
duration minus the part of its interval that its child spans cover. Child
spans from several threads may overlap each other, so the covered part is
the union of the children's intervals, not their sum.

Nothing here imports the package under test; `layers.py` decides what gets
wrapped and under which name.
"""

from __future__ import annotations

import functools
import itertools
import threading
import uuid
from array import array
from time import perf_counter

import numpy as np

STATUS_OK = 0
STATUS_FAILURE = 1  # raised one of the tracer's `failure_types`
STATUS_ERROR = 2  # raised anything else


class _ThreadBuffer:
    """Spans finished on one thread, column by column."""

    def __init__(self, thread_index: int):
        self.thread = thread_index
        self.stack = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.work = array("d")
        self.status = array("b")


class Tracer:
    """Records spans around wrapped functions; inert until `install`."""

    def __init__(self, failure_types: tuple = ()):
        self.run_id = uuid.uuid4().hex
        self.failure_types = failure_types
        self._names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list = []
        self._buffers_lock = threading.Lock()
        self._main = self._buffer()
        self._patched: list = []

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, work=None):
        """`fn` wrapped in a span called `name`.

        `work(args, kwargs, result)` returns the span's work count; it runs
        after `fn` returns and is skipped when `fn` raises.
        """
        name_id = self._name_id(name)
        failure_types = self.failure_types
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif main.stack:
                # A worker thread's outermost span belongs to the call the
                # main thread is blocked in (evaluate with jobs > 1).
                parent = main.stack[-1]
            else:
                parent = -1
            span_id = next(self._ids)
            stack.append(span_id)
            status = STATUS_OK
            amount = 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = float(work(args, kwargs, result))
                return result
            except BaseException as exc:
                status = STATUS_FAILURE if isinstance(exc, failure_types) else STATUS_ERROR
                raise
            finally:
                end = perf_counter()
                stack.pop()
                buf.ids.append(span_id)
                buf.parents.append(parent)
                buf.names.append(name_id)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.work.append(amount)
                buf.status.append(status)

        return traced

    def install(self, owner, attr: str, name: str, work=None) -> bool:
        """Replace `owner.attr` by its traced version; False if the owner or
        the attribute is absent (a later version of the package)."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None or not callable(fn):
            return False
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, work))
        return True

    def uninstall(self) -> None:
        """Restore every replaced attribute, last replaced first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def spans(self) -> dict:
        """All finished spans as numpy columns, sorted by span id."""
        cols = {k: [] for k in ("id", "parent", "name", "start", "end", "work", "status", "thread")}
        with self._buffers_lock:
            buffers = list(self._buffers)
        for buf in buffers:
            cols["id"].append(np.array(buf.ids, dtype=np.int64))
            cols["parent"].append(np.array(buf.parents, dtype=np.int64))
            cols["name"].append(np.array(buf.names, dtype=np.int32))
            cols["start"].append(np.array(buf.starts, dtype=np.float64))
            cols["end"].append(np.array(buf.ends, dtype=np.float64))
            cols["work"].append(np.array(buf.work, dtype=np.float64))
            cols["status"].append(np.array(buf.status, dtype=np.int8))
            cols["thread"].append(np.full(len(buf.ids), buf.thread, dtype=np.int32))
        out = {k: np.concatenate(v) for k, v in cols.items()}
        order = np.argsort(out["id"], kind="stable")
        out = {k: v[order] for k, v in out.items()}
        out["names"] = np.array(self._names, dtype=str)
        out["run_id"] = np.array(self.run_id)
        return out

    def dump(self, path) -> None:
        np.savez(path, **self.spans())


def load(path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def self_times(spans: dict) -> np.ndarray:
    """Per-span self time: duration minus the union of its children."""
    start = spans["start"].tolist()
    end = spans["end"].tolist()
    parent = spans["parent"]
    self_t = spans["end"] - spans["start"]
    pos = {i: k for k, i in enumerate(spans["id"].tolist())}
    rows = np.flatnonzero(parent >= 0)
    rows = rows[np.lexsort((spans["start"][rows], parent[rows]))]
    groups = itertools.groupby(rows.tolist(), key=parent.tolist().__getitem__)
    for parent_id, group in groups:
        p = pos.get(parent_id)
        if p is None:
            continue
        covered = 0.0
        cur_lo = cur_hi = None
        for r in group:
            lo, hi = max(start[r], start[p]), min(end[r], end[p])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        self_t[p] -= covered
    return self_t


def check_nesting(spans: dict, tol: float = 1e-9) -> list:
    """Spans that break nesting: a child outside its parent's interval, or a
    child whose self time exceeds its parent's duration. Empty when sound."""
    self_t = self_times(spans)
    pos = {int(i): k for k, i in enumerate(spans["id"])}
    bad = []
    for r in np.flatnonzero(spans["parent"] >= 0):
        p = pos.get(int(spans["parent"][r]))
        if p is None:
            bad.append((int(spans["id"][r]), "parent missing"))
            continue
        if spans["start"][r] < spans["start"][p] - tol or spans["end"][r] > spans["end"][p] + tol:
            bad.append((int(spans["id"][r]), "outside parent"))
        if self_t[r] > (spans["end"][p] - spans["start"][p]) + tol:
            bad.append((int(spans["id"][r]), "self time exceeds parent"))
    if np.any(self_t < -tol):
        bad.append((-1, "negative self time"))
    return bad

"""In-memory span recorder for the traced benchmark run.

A span records a name, start, end, parent span and the op it belongs to.
Spans stay in memory until the run ends; ``summary`` derives per-name
call counts, self time (duration minus the time covered by child spans)
and failure counts, and ``dump`` writes the raw spans as JSON.

The untraced run uses ``NullRecorder``, whose ``span`` is a shared no-op
context manager, so the same op code runs with tracing on or off.
``patched`` wraps library functions in spans for the length of a block,
so calls the library makes internally are timed on its own code path.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    def span(self, name, tag=None):
        return _NULL_SPAN

    def begin_op(self, op_id):
        pass


class SpanRecorder:
    def __init__(self):
        # each span: [name, tag, start, end, parent index, op id, failed]
        self.spans = []
        self._stack = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id

    @contextmanager
    def span(self, name, tag=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, tag, time.perf_counter(), None, parent, self._op, False]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        except BaseException:
            record[6] = True
            raise
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def summary(self, by_tag=False):
        """name (or (name, tag)) -> {"calls", "self_s", "failed"}, self_s summed."""
        child_time = [0.0] * len(self.spans)
        for _name, _tag, start, end, parent, _op, _failed in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, tag, start, end, _parent, _op, failed) in enumerate(self.spans):
            key = (name, tag) if by_tag else name
            entry = out.setdefault(key, {"calls": 0, "self_s": 0.0, "failed": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["failed"] += int(failed)
        return out

    def dump(self, path, meta):
        rows = [
            {"name": n, "tag": t, "start": s, "end": e, "parent": p, "op": o, "failed": f}
            for n, t, s, e, p, o, f in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)


def _spanned(rec, fn, name, tag_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, tag_of(*args, **kwargs) if tag_of else None):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def patched(rec, targets):
    """Wrap module attributes in spans while the block runs.

    ``targets`` holds (module, attribute, span name, tag function or None);
    the tag function gets the call's arguments.  The original attributes
    are restored on exit.
    """
    saved = [(module, attr, getattr(module, attr)) for module, attr, _name, _tag in targets]
    for (module, attr, fn), (_m, _a, name, tag_of) in zip(saved, targets):
        setattr(module, attr, _spanned(rec, fn, name, tag_of))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)

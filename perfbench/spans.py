"""Wall-clock spans recorded around calls into the program's layers.

A :class:`SpanRecorder` replaces a function on its owner (a class or a
module) with a wrapper that records one span per call: the span's name,
its start and end on the wall clock, and the span that was open when it
started (its parent).  Spans live in flat typed arrays so millions of
them fit in memory; they are written out once, when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Calls are properly nested on one thread, so the self times of
all spans under a root add up to the root's duration exactly; the traced
run checks that identity.

The wrappers are installed only for the traced run and removed after
it, so the untraced run executes the program's own functions.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from pathlib import Path

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.codes = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.ends)

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, enter=None, leave=None):
        """``fn`` wrapped to record a ``name`` span per call.

        ``enter(args)`` runs before the call and its return value is
        handed to ``leave(args, result, token)`` after it (``result`` is
        None when the call raised); both are optional.
        """
        code = self._code(name)
        clock = self._clock
        stack = self._stack
        codes_append = self.codes.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append

        if enter is None and leave is None:
            def wrapper(*args, **kwargs):
                i = len(ends)
                codes_append(code)
                parents_append(stack[-1])
                ends_append(0.0)
                stack.append(i)
                starts_append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                token = enter(args) if enter is not None else None
                i = len(ends)
                codes_append(code)
                parents_append(stack[-1])
                ends_append(0.0)
                stack.append(i)
                starts_append(clock())
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    ends[i] = clock()
                    stack.pop()
                    if leave is not None:
                        leave(args, result, token)

        return wrapper

    def patch(self, owner, attr: str, name: str, enter=None, leave=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until :meth:`restore`.

        An inherited method is shadowed on ``owner`` and the shadow is
        deleted again on restore.
        """
        own = attr in owner.__dict__
        raw = owner.__dict__[attr] if own else inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, enter, leave))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, enter, leave))
        else:
            new = self.wrap(raw, name, enter, leave)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, raw if own else None))

    def restore(self) -> None:
        """Put every patched function back, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def span(self, name: str):
        """A context manager recording one span from the benchmark's own code."""
        return _Span(self, self._code(name))

    # -- arithmetic --------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        starts, ends, parents = self.starts, self.ends, self.parents
        selfs = array("d", (e - s for s, e in zip(starts, ends)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                selfs[parent] -= ends[i] - starts[i]
        return selfs

    def by_name(self) -> dict[str, dict]:
        """Per name: span count, inclusive seconds and self seconds.

        Inclusive time counts a span nested under a span of the same
        name twice, so only self times add up across names.
        """
        out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for code, start, end, own in zip(self.codes, self.starts, self.ends, self.self_times()):
            row = out[names[code]]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in start order."""
        code = self._codes.get(name)
        if code is None:
            return []
        return [e - s for c, s, e in zip(self.codes, self.starts, self.ends) if c == code]

    # -- output ------------------------------------------------------------

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as raw arrays plus a JSON header; returns the header path."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"code": self.codes, "parent": self.parents, "start": self.starts, "end": self.ends}
        layout = []
        for field, arr in fields.items():
            path = directory / f"{stem}.{field}.bin"
            with open(path, "wb") as fh:
                arr.tofile(fh)
            layout.append({"field": field, "file": path.name, "typecode": arr.typecode})
        header = directory / f"{stem}.spans.json"
        header.write_text(json.dumps({"names": self.names, "count": len(self), "arrays": layout}))
        return header


class _Span:
    __slots__ = ("_rec", "_code", "_index")

    def __init__(self, recorder: SpanRecorder, code: int):
        self._rec = recorder
        self._code = code
        self._index = -1

    def __enter__(self):
        rec = self._rec
        i = self._index = len(rec.ends)
        rec.codes.append(self._code)
        rec.parents.append(rec._stack[-1])
        rec.ends.append(0.0)
        rec._stack.append(i)
        rec.starts.append(rec._clock())
        return self

    def __exit__(self, *exc):
        rec = self._rec
        rec.ends[self._index] = rec._clock()
        rec._stack.pop()
        return False

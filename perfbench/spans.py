"""Span recording from outside the program.

Only the traced run uses this.  :meth:`Tracer.wrap` swaps a public
function, at the module attribute where its caller looks it up, for a
wrapper that records a span; :meth:`Tracer.restore` puts the originals
back.  Spans stay in memory as ``(name, start, end, parent, op)`` and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = "setup"
        self.notes: dict[int, dict] = {}  # span index -> attributes
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        try:
            yield idx
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, on_result=None, classmethod_=False):
        """Record a span around every call of ``owner.attr``.

        ``on_result(span_index, args, result)`` may attach attributes.
        """
        original = owner.__dict__[attr] if classmethod_ else getattr(owner, attr)
        target = original.__func__ if classmethod_ else original
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as idx:
                result = target(*args, **kwargs)
            if on_result is not None:
                on_result(idx, args, result)
            return result

        wrapper.__wrapped__ = target
        setattr(owner, attr, classmethod(wrapper) if classmethod_ else wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def note(self, idx: int, **attrs):
        self.notes.setdefault(idx, {}).update(attrs)

    # -- derived numbers --------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def outermost(self, prefix: str):
        """Indices of spans named ``prefix*`` with no ancestor of that prefix."""
        out = []
        for i, (name, *_rest) in enumerate(self.spans):
            if not name.startswith(prefix):
                continue
            p = self.spans[i][3]
            while p >= 0 and not self.spans[p][0].startswith(prefix):
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def total_ms(self, indices) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices) * 1000.0

    def named(self, name: str):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def write(self, path):
        own = self.self_seconds()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "self": own[i], "parent": parent, "op": op}
                row.update(self.notes.get(i, {}))
                fh.write(json.dumps(row) + "\n")

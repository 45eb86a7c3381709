"""In-memory span tracer that wraps the library's functions from outside.

Spans are kept as lists `[name, start, end, parent, op, work]`: `parent` is
the index of the enclosing span (or None), `op` the id of the operation the
benchmark was running (a loop index, "setup" or "finish"), and `work` an
optional number a hook computed from the call (flops, bytes, counts).
Nothing is written until `write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        A name bound with `from x import y` must be wrapped in the module
        that looks it up, not in x.  hook(args, result) may return the
        span's `work` value.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.spans[idx][5] = hook(args, result)
            return result

        self._patch(owner, attr, fn, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like wrap, for a generator function: one span per item produced."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "work": work}) + "\n")

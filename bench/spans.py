"""Spans recorded around calls into the package, from the benchmark's side.

``Tracer.patch`` replaces a public name with a timing wrapper in the
namespace its callers look it up in, and ``restore`` puts the originals
back.  A name that no longer exists is an error, so a layer cannot drop
out of the breakdown unnoticed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


class TraceError(RuntimeError):
    """A name the trace wraps is missing from the package."""


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes counts set inside it."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def patch(
        self,
        name: str,
        owner: object,
        attr: str,
        count: Callable[[tuple, dict, object, dict], None] | None = None,
    ) -> None:
        """Wrap the callable defined as ``owner.attr`` in spans called ``name``.

        ``count(args, kwargs, result, counts)`` runs after the call, inside
        the span, to record counts at the same boundary.  A classmethod
        stays a classmethod.
        """
        raw = vars(owner).get(attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if not callable(fn):
            owner_name = getattr(owner, "__name__", repr(owner))
            raise TraceError(f"{owner_name}.{attr} no longer exists; update the trace")
        wrapper = self._wrap(name, fn, count)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def _wrap(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, kwargs, result, counts)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_time(self, span: dict) -> float:
        """Span duration minus its direct children (one thread: no overlap)."""
        return duration(span) - sum(duration(c) for c in self.children(span))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]

"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end (``perf_counter_ns``) and the span that
was open when it started.  Spans stay in memory until ``dump`` writes them
out at the end of a run.  A layer's self time is its span's duration minus
the part its child spans cover; children never overlap here, because one
caller runs one operation at a time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, name, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._open: list[int] = []
        self._next = 0

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next
        self._next += 1
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a child span around every call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_ns(self) -> dict[int, int]:
        """Self time of every span, by span id."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return {sid: (end - start) - child_ns[sid] for sid, _, _, start, end in self.spans}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time in seconds."""
        own = self.self_ns()
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, start, end in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += own[sid] * 1e-9
        return out

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "summary": self.summary(),
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                for sid, parent, name, start, end in sorted(self.spans)
            ],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

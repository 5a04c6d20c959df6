"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, op): start and end are perf_counter
seconds, parent is the index of the enclosing span or -1, and op is the
operation id shared by every span of one operation.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: object = "setup"

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def ms(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return 1000.0 * (end - start)

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def median_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")

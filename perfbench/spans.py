"""In-memory spans and counters recorded around calls into rank3's layers.

A span is (name, start, end, parent, request): start and end are
``time.perf_counter`` readings, parent is the index of the enclosing span
or None, and request identifies the query a span served (None outside the
queries workload).  Spans stay in memory: a round's spans go back to the
parent with its result, and the parent writes them all once, when the
run ends, so a span costs two clock reads and a list append.  A disabled
tracer records nothing.
"""

import json
import time
from contextlib import contextmanager

FIELDS = ("name", "start", "end", "parent", "request")


def total(spans, name: str) -> float:
    """Summed duration of every closed span called ``name``."""
    return sum((end - start for span_name, start, end, _parent, _request in spans
                if span_name == name and end is not None), 0.0)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.request = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return total(self.spans, name)

    def write(self, path, rounds=()) -> None:
        """This process's spans and counts, then those of each worker round."""
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans, "counts": self.counts,
                       "rounds": list(rounds)}, fh)

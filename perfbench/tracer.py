"""In-memory spans around the benchmark's calls into each program layer.

A span records its name, an optional variant (for example the waveform
family), start, end, the index of its parent span and the job it belongs
to.  Spans stay in memory until the run ends and are written out once.
``NullTracer`` has the same interface and records nothing; the untraced
runs use it, so both kinds of run execute the same job code.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False
    job = None

    def span(self, name: str, variant: str | None = None):
        return _NULL

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # [name, variant, start, end, parent, job, failed]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, variant: str | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, variant, perf_counter(), None, parent, self.job, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            rec[6] = True
            raise
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def by_layer(self) -> dict:
        """(name, variant) -> list of self times, one per call."""
        out = defaultdict(list)
        for s, own in zip(self.spans, self.self_times()):
            out[(s[0], s[1])].append(own)
        return out

    def errors_by_module(self) -> Counter:
        return Counter(s[0].split(".")[0] for s in self.spans if s[6])

    def write(self, path) -> None:
        keys = ("name", "variant", "start", "end", "parent", "job", "failed")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def span_cost(n: int = 20000) -> float:
    """Seconds one empty span costs, median of five timed batches."""
    tr = Tracer()
    batches = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(n):
            with tr.span("calibration"):
                pass
        batches.append((perf_counter() - t0) / n)
        tr.spans.clear()
    return statistics.median(batches)

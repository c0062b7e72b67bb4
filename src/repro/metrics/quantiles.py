"""Streaming quantile digest for tail-latency reporting.

The collective-workload engine (:mod:`repro.workloads`) streams one
completion latency per finished operation and must report p50/p99/p999 at
the end of the run.  At the quick-profile scales this repository simulates
(thousands of operations per cell, not billions), the right digest is the
*exact* one: keep every sample in sorted order and interpolate, so the
reported tails are true order statistics rather than sketch approximations.
The class is written against a streaming interface (``add``/``merge``/
``quantile``) so a fixed-memory sketch could replace the sorted list later
without touching any caller.

Quantile semantics match :func:`repro.metrics.stats.percentile` exactly
(linear interpolation between the two straddling order statistics --
``statistics.quantiles(..., method="inclusive")`` convention), so the
property suite can cross-check the digest against the stdlib.
"""

from __future__ import annotations

import bisect
import math


class QuantileDigest:
    """Exact streaming quantile digest over a float sample.

    Samples arrive one at a time through :meth:`add` and are kept in a
    sorted list (``O(n)`` inserts via ``bisect.insort``; fine for the
    per-cell sample sizes the workload engine produces).  Quantiles are
    linear-interpolation order statistics, identical to
    :func:`repro.metrics.stats.percentile`.
    """

    __slots__ = ("_sorted", "_sum")

    def __init__(self) -> None:
        self._sorted: list[float] = []
        self._sum: float = 0.0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Insert one sample (must be finite; NaN would corrupt the order)."""
        if not math.isfinite(value):
            raise ValueError(f"non-finite sample {value!r}")
        bisect.insort(self._sorted, value)
        self._sum += value

    def merge(self, other: "QuantileDigest") -> None:
        """Fold another digest's samples into this one."""
        merged: list[float] = []
        a, b = self._sorted, other._sorted
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] <= b[j]:
                merged.append(a[i])
                i += 1
            else:
                merged.append(b[j])
                j += 1
        merged.extend(a[i:])
        merged.extend(b[j:])
        self._sorted = merged
        self._sum += other._sum

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def mean(self) -> float:
        if not self._sorted:
            raise ValueError("mean of empty digest")
        return self._sum / len(self._sorted)

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile, ``q`` in [0, 1]."""
        s = self._sorted
        if not s:
            raise ValueError("quantile of empty digest")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if len(s) == 1:
            return s[0]
        pos = (len(s) - 1) * q
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        value = s[lo] * (1 - frac) + s[hi] * frac
        # Same ulp-clamp as stats.percentile: interpolation must never
        # escape the straddling order statistics.
        return min(max(value, s[lo]), s[hi])

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def summary(self) -> dict[str, float | int | None]:
        """JSON-ready tail summary (None fields when the digest is empty)."""
        if not self._sorted:
            return {"count": 0, "mean": None, "p50": None, "p99": None,
                    "p999": None, "max": None}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max": self._sorted[-1],
        }

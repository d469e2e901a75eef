"""Metrics instruments: counters, gauges, time-weighted histograms.

Three instrument kinds, mirroring the usual metrics taxonomy:

* :class:`Counter` — a monotonically increasing sum (packets forwarded,
  link busy-nanoseconds, HPU busy-nanoseconds);
* :class:`Gauge` — a sampled level with *time-weighted* averaging
  (egress queue depth, concurrently active HPUs per cluster).  Samples
  are kept so exporters can render a Perfetto counter track;
* :class:`Histogram` — a value distribution summarized with the
  linear-interpolation percentiles of
  :func:`summarize` (per-protocol request latency,
  per-handler execution time).

Instruments are created lazily by name through
:class:`MetricsRegistry`; emitting into one that nobody reads is cheap,
reading one that nobody wrote returns zeros.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "HandleCache",
    "percentile", "summarize",
]


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def to_dict(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge:
    """A sampled level with time-weighted statistics.

    ``set(t, v)`` records the level ``v`` holding from time ``t``
    onwards; :meth:`time_average` integrates the step function up to a
    query time.  The raw samples double as a Perfetto counter track.
    """

    __slots__ = ("name", "times", "values", "_area", "_last_t", "_last_v", "max")

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []
        self._area = 0.0
        self._last_t = 0.0
        self._last_v = 0.0
        self.max = 0.0

    def set(self, t: float, v: float) -> None:
        if t > self._last_t:
            self._area += self._last_v * (t - self._last_t)
            self._last_t = t
        self._last_v = v
        if v > self.max:
            self.max = v
        self.times.append(t)
        self.values.append(v)

    @property
    def last(self) -> float:
        return self._last_v

    def time_average(self, t_end: Optional[float] = None) -> float:
        """Mean level over ``[0, t_end]`` (defaults to the last sample)."""
        t = self._last_t if t_end is None else t_end
        if t <= 0:
            return 0.0
        area = self._area
        if t > self._last_t:
            area += self._last_v * (t - self._last_t)
        return area / t

    def to_dict(self, now: Optional[float] = None) -> Dict[str, float]:
        return {
            "last": self.last,
            "max": self.max,
            "time_average": self.time_average(now),
            "n_samples": float(len(self.times)),
        }


class Histogram:
    """A value distribution (latencies, sizes)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []

    def observe(self, v: float) -> None:
        self.values.append(v)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    def summary(self) -> Dict[str, Optional[float]]:
        return summarize(self.values)

    def to_dict(self) -> Dict[str, Optional[float]]:
        return self.summary()


class HandleCache:
    """Pre-resolved instrument handles for one component.

    Instrument names like ``link.sn0.queue_depth`` are stable for the
    lifetime of a component, yet the old instrumentation sites rebuilt
    the f-string and re-did the registry lookup on every packet.  A
    component instead constructs ``HandleCache(build)`` once, where
    ``build(registry)`` resolves all its instruments, and calls
    ``get(tel.metrics)`` per event: the handles are rebuilt only when
    the registry object changes (i.e. after ``Telemetry.reset()``), so
    the steady-state cost is one identity comparison.
    """

    __slots__ = ("_build", "_registry", "_handles")

    def __init__(self, build):
        self._build = build
        self._registry: Optional["MetricsRegistry"] = None
        self._handles: Any = None

    def get(self, registry: "MetricsRegistry") -> Any:
        if registry is not self._registry:
            self._handles = self._build(registry)
            self._registry = registry
        return self._handles


class MetricsRegistry:
    """Name-indexed instrument store with lazy creation."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ----------------------------------------------------- get-or-create
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    # ------------------------------------------------------------ export
    def to_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Flat JSON-ready snapshot of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.to_dict(now) for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.to_dict() for n, h in sorted(self.histograms.items())},
        }

    def csv_rows(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Long-form rows: one (kind, name, stat, value) per statistic."""
        rows: List[Dict[str, Any]] = []
        for n, c in sorted(self.counters.items()):
            rows.append({"kind": "counter", "name": n, "stat": "value", "value": c.value})
        for n, g in sorted(self.gauges.items()):
            for stat, v in g.to_dict(now).items():
                rows.append({"kind": "gauge", "name": n, "stat": stat, "value": v})
        for n, h in sorted(self.histograms.items()):
            for stat, v in h.to_dict().items():
                rows.append({"kind": "histogram", "name": n, "stat": stat, "value": v})
        return rows

    def sum_matching(self, prefix: str, suffix: str = "") -> float:
        """Sum of all counters whose name starts/ends with the given
        affixes (e.g. ``sum_matching("link.", ".busy_ns")``)."""
        return sum(
            c.value
            for n, c in self.counters.items()
            if n.startswith(prefix) and n.endswith(suffix)
        )

    def max_matching(self, prefix: str, suffix: str = "") -> float:
        vals = [
            c.value
            for n, c in self.counters.items()
            if n.startswith(prefix) and n.endswith(suffix)
        ]
        return max(vals) if vals else 0.0


def percentile(sorted_samples: List[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method) over an
    already-sorted sample list; ``p`` in [0, 1]."""
    n = len(sorted_samples)
    if n == 0:
        return 0.0
    if n == 1:
        return sorted_samples[0]
    rank = p * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac


def summarize(samples: List[float]) -> Dict[str, Optional[float]]:
    """Distribution summary for a list of durations.

    Percentiles use linear interpolation between order statistics (the
    nearest-rank rule previously used here collapses every tail
    percentile onto the max for small n).  ``std`` is the population
    standard deviation.

    Statistics that would mislead are ``None`` rather than a number:
    every stat of an *empty* population (a 0.0 "latency" from zero
    samples reads as an excellent result), and the ``p999`` of fewer
    than 4 samples (it is just the max wearing a tail-percentile
    label).  Renderers print them as ``-``.
    """
    keys = ("min", "mean", "median", "p50", "p90", "p99", "p999", "max", "std")
    if not samples:
        out: Dict[str, Optional[float]] = {k: None for k in keys}
        out["n"] = 0
        return out
    s = sorted(samples)
    n = len(s)
    mean = sum(s) / n
    var = sum((x - mean) ** 2 for x in s) / n
    p50 = percentile(s, 0.5)
    return {
        "n": n,
        "min": s[0],
        "mean": mean,
        "median": p50,
        "p50": p50,
        "p90": percentile(s, 0.90),
        "p99": percentile(s, 0.99),
        "p999": percentile(s, 0.999) if n >= 4 else None,
        "max": s[-1],
        "std": var**0.5,
    }

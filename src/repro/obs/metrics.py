"""The metrics registry: counters, gauges and histograms with labeled series.

The runtime accounts for itself here — messages dropped to crashed
processes, point-to-point sends, updates replayed per query.  Those
quantities are exactly the paper's Section VII-C complexity claims — one broadcast per update,
query replay cost, log growth — so they deserve a first-class telemetry
surface.  This module provides it:

* :class:`MetricsRegistry` — a named collection of instruments.  Every
  instrument supports *labeled series* (e.g. ``repro_replayed_updates_total``
  keyed by ``pid``), registered idempotently so independent components can
  share one registry.
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  Prometheus-style instrument kinds.  Handles returned by
  :meth:`Counter.labels` are plain attribute-bearing objects, cheap enough
  for simulator hot paths (one bound-method call per increment).
* Exposition in both Prometheus text format
  (:meth:`MetricsRegistry.to_prometheus_text`) and a JSON document
  (:meth:`MetricsRegistry.to_json`) consumed by the run-report layer and
  ``benchmarks/run_all.py``'s ``BENCH_universal.json``.

Determinism: instruments never read a clock or draw randomness — every
recorded value is handed in by the caller, stamped with the cluster's
*virtual* time where time matters at all.  Exposition output is sorted, so
two runs of the same seed produce byte-identical dumps.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from typing import Any, Iterator, Mapping, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, in virtual-time units / replayed-update counts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

JsonDict = dict[str, Any]


class CounterSeries:
    """One labeled counter series: a monotone number with an ``inc``."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class GaugeSeries:
    """One labeled gauge series: a settable number."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount


class HistogramSeries:
    """One labeled histogram series: bucketed counts plus sum/count."""

    __slots__ = ("labels", "uppers", "bucket_counts", "sum", "count")

    def __init__(self, labels: tuple[str, ...], uppers: tuple[float, ...]) -> None:
        self.labels = labels
        self.uppers = uppers
        #: per-bucket (non-cumulative) counts; the final slot is +Inf.
        self.bucket_counts = [0] * (len(uppers) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: int | float) -> None:
        self.bucket_counts[bisect_left(self.uppers, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, c in zip(self.uppers, self.bucket_counts):
            running += c
            out.append((upper, running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile of this series (0.0 when empty)."""
        return bucket_quantile(self.uppers, self.bucket_counts, q)


class _Metric:
    """Shared machinery: a named family of labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._series: dict[tuple[str, ...], Any] = {}
        if not label_names:
            # Unlabeled metrics expose their single series directly.
            self._series[()] = self._make_series(())

    def _make_series(self, values: tuple[str, ...]) -> Any:
        raise NotImplementedError

    def labels(self, **labels: str) -> Any:
        """The series for one label assignment (created on first use)."""
        try:
            values = tuple(str(labels[name]) for name in self.label_names)
        except KeyError as exc:
            raise ValueError(
                f"metric {self.name!r} requires labels {self.label_names}, "
                f"got {sorted(labels)}"
            ) from exc
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} requires labels {self.label_names}, "
                f"got {sorted(labels)}"
            )
        series = self._series.get(values)
        if series is None:
            series = self._series[values] = self._make_series(values)
        return series

    def series(self) -> list[Any]:
        """Every series, sorted by label values (deterministic)."""
        return [self._series[k] for k in sorted(self._series)]

    def _default(self) -> Any:
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labeled by {self.label_names}; "
                f"use .labels(...) to pick a series"
            )
        return self._series[()]


class Counter(_Metric):
    """A monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def _make_series(self, values: tuple[str, ...]) -> CounterSeries:
        return CounterSeries(values)

    def inc(self, amount: int | float = 1) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> int | float:
        return self._default().value

    def total(self) -> int | float:
        """Sum over every labeled series."""
        return sum(s.value for s in self._series.values())


class Gauge(_Metric):
    """A value that can go up and down (set to current state on demand)."""

    kind = "gauge"

    def _make_series(self, values: tuple[str, ...]) -> GaugeSeries:
        return GaugeSeries(values)

    def set(self, value: int | float) -> None:
        self._default().set(value)

    def inc(self, amount: int | float = 1) -> None:
        self._default().inc(amount)

    def dec(self, amount: int | float = 1) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> int | float:
        return self._default().value

    def total(self) -> int | float:
        return sum(s.value for s in self._series.values())


class Histogram(_Metric):
    """A distribution, recorded into fixed buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        uppers = tuple(float(b) for b in buckets)
        if not uppers or list(uppers) != sorted(set(uppers)):
            raise ValueError(f"buckets must be distinct and ascending: {buckets}")
        self.uppers = uppers
        super().__init__(name, help, label_names)

    def _make_series(self, values: tuple[str, ...]) -> HistogramSeries:
        return HistogramSeries(values, self.uppers)

    def observe(self, value: int | float) -> None:
        self._default().observe(value)

    def total_count(self) -> int:
        return sum(s.count for s in self._series.values())

    def total_sum(self) -> float:
        return sum(s.sum for s in self._series.values())

    def combined_buckets(self) -> list[int]:
        """Per-bucket (non-cumulative) counts summed over every series.

        The soak harness diffs two of these snapshots to compute a
        *windowed* quantile (e.g. convergence-lag p99 for the last
        second) without the histogram having to remember raw samples.
        """
        totals = [0] * (len(self.uppers) + 1)
        for series in self._series.values():
            for i, c in enumerate(series.bucket_counts):
                totals[i] += c
        return totals

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile over all series combined."""
        return bucket_quantile(self.uppers, self.combined_buckets(), q)


class MetricsRegistry:
    """A named collection of instruments with dual exposition.

    Registration is idempotent: asking for an existing name returns the
    existing instrument, provided kind and label names match (a mismatch
    is a programming error and raises).  This is what lets the cluster,
    the network and every replica share one registry without coordination.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- registration ---------------------------------------------------------

    def _register(self, cls: type, name: str, help: str,
                  label_names: Sequence[str], **kwargs: Any) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        names = tuple(label_names)
        for label in names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != names:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        metric = cls(name, help, names, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, label_names, buckets=buckets)

    # -- reading --------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str, default: int | float = 0,
              **labels: str) -> int | float:
        """The value of one counter/gauge series; ``default`` if absent."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if labels:
            values = tuple(str(labels[n]) for n in metric.label_names)
            series = metric._series.get(values)
            return default if series is None else series.value
        if metric.label_names:
            return metric.total()
        return metric.value  # type: ignore[union-attr]

    def total(self, name: str, default: int | float = 0) -> int | float:
        """Sum of a counter/gauge across all its series."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.total()  # type: ignore[union-attr]

    def labeled_values(self, name: str) -> dict[tuple[str, ...], int | float]:
        """``label-values -> value`` for every series of a counter/gauge."""
        metric = self._metrics.get(name)
        if metric is None:
            return {}
        return {s.labels: s.value for s in metric.series()}

    # -- exposition -----------------------------------------------------------

    def flat(self) -> dict[str, int | float]:
        """A flat ``name{label="v"} -> value`` dict (benchmark artifacts).

        Histograms are flattened to ``name_count`` and ``name_sum``.
        """
        out: dict[str, int | float] = {}
        for name in self.names():
            metric = self._metrics[name]
            for series in metric.series():
                key = name + _render_labels(metric.label_names, series.labels)
                if isinstance(series, HistogramSeries):
                    out[key + "_count"] = series.count
                    out[key + "_sum"] = series.sum
                else:
                    out[key] = series.value
        return out

    def to_json(self) -> JsonDict:
        """A machine-readable dump of every instrument and series."""
        metrics: JsonDict = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: JsonDict = {
                "type": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "series": [],
            }
            for series in metric.series():
                labels = dict(zip(metric.label_names, series.labels))
                if isinstance(series, HistogramSeries):
                    entry["series"].append(
                        {
                            "labels": labels,
                            "count": series.count,
                            "sum": series.sum,
                            "buckets": [
                                ["+Inf" if le == float("inf") else le, c]
                                for le, c in series.cumulative_buckets()
                            ],
                        }
                    )
                else:
                    entry["series"].append({"labels": labels, "value": series.value})
            metrics[name] = entry
        return {"format": "repro-metrics-v1", "metrics": metrics}

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (one block per metric)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for series in metric.series():
                if isinstance(series, HistogramSeries):
                    for le, cum in series.cumulative_buckets():
                        le_txt = "+Inf" if le == float("inf") else _fmt_num(le)
                        labels = _render_labels(
                            metric.label_names + ("le",), series.labels + (le_txt,)
                        )
                        lines.append(f"{name}_bucket{labels} {cum}")
                    base = _render_labels(metric.label_names, series.labels)
                    lines.append(f"{name}_sum{base} {_fmt_num(series.sum)}")
                    lines.append(f"{name}_count{base} {series.count}")
                else:
                    labels = _render_labels(metric.label_names, series.labels)
                    lines.append(f"{name}{labels} {_fmt_num(series.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json_text(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def iter_samples(self) -> Iterator[tuple[str, Mapping[str, str], int | float]]:
        """Flat ``(name, labels, value)`` samples for counters and gauges."""
        for name in self.names():
            metric = self._metrics[name]
            for series in metric.series():
                if isinstance(series, HistogramSeries):
                    continue
                yield name, dict(zip(metric.label_names, series.labels)), series.value


def bucket_quantile(
    uppers: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Prometheus-style quantile estimate from bucketed counts.

    ``counts`` are per-bucket (non-cumulative) observation counts, one
    slot per ``uppers`` entry plus a trailing ``+Inf`` slot — exactly
    :attr:`HistogramSeries.bucket_counts` (so a *windowed* quantile is
    just ``bucket_quantile(uppers, [b - a for a, b in zip(old, new)], q)``
    over two snapshots).  Linear interpolation inside the target bucket,
    the standard ``histogram_quantile`` behaviour: observations landing
    in the ``+Inf`` bucket clamp to the highest finite bound, and an
    empty window returns 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    running = 0.0
    for i, upper in enumerate(uppers):
        prev = running
        running += counts[i]
        if running >= rank:
            lower = uppers[i - 1] if i > 0 else 0.0
            if counts[i] == 0:
                return upper
            return lower + (upper - lower) * ((rank - prev) / counts[i])
    return uppers[-1] if uppers else 0.0


def _render_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_num(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)

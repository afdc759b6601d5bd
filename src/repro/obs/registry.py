"""Live metrics registry: counters, gauges and histograms.

The registry is the in-process source of truth for "what is the system
doing *right now*" — the counterpart of the :class:`~repro.sim.events.TraceLog`,
which records *what happened*.  Instruments are cheap enough to update from
scheduler hot paths (a dict lookup happens only at creation; updates are a
float add) and the whole registry renders to the Prometheus text exposition
format via :func:`repro.obs.exporters.to_prometheus_text`.  A quantity the
program already keeps elsewhere is not updated at all: it is read when the
registry is — a gauge through its ``callback``, anything else by a
refresher registered with :meth:`MetricsRegistry.on_collect`.

Instruments are identified by ``(name, labels)``; repeated ``counter()`` /
``gauge()`` / ``histogram()`` calls with the same identity return the same
instrument, so components can re-resolve instruments without coordination.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: default histogram buckets, tuned for wall-clock seconds of scheduler work
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, str] | None) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (events, grants, jobs, …)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self._value += amount

    def set_total(self, total: float) -> None:
        """Fast-forward to an externally tracked cumulative total.

        Used to mirror pre-existing cumulative stats (e.g. the scheduler's
        ``stats`` dict) without double bookkeeping; the total must never
        move backwards.
        """
        if total < self._value:
            raise ValueError(
                f"counter {self.name} cannot move backwards "
                f"({total} < {self._value})"
            )
        self._value = float(total)

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"<Counter {self.name}{dict(self.labels)} {self._value}>"


class Gauge:
    """A value that can go up and down (queue depth, busy cores, …).

    A gauge may instead be backed by a ``callback``; reading :attr:`value`
    then invokes it, so collection always sees the live quantity without
    any hot-path updates.
    """

    __slots__ = ("name", "labels", "_value", "_callback")

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        callback: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise RuntimeError(f"gauge {self.name} is callback-backed")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{dict(self.labels)} {self.value}>"


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= upper_bounds[i]``; an
    implicit ``+Inf`` bucket equals :attr:`count`.  Keyed by sim-time-free
    observations — callers decide what they observe (wall seconds, delays,
    queue residence times, …).
    """

    __slots__ = ("name", "labels", "upper_bounds", "bucket_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} has duplicate buckets")
        self.name = name
        self.labels = labels
        self.upper_bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        # linear scan: bucket lists are short and this is branch-predictable
        for i, bound in enumerate(self.upper_bounds):
            if value <= bound:
                self.bucket_counts[i] += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf excluded."""
        return list(zip(self.upper_bounds, self.bucket_counts))

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name}{dict(self.labels)} "
            f"count={self._count} sum={self._sum:.6f}>"
        )


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create factory and collection point for all instruments."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelsKey], Instrument] = {}
        self._help: dict[str, str] = {}
        self._types: dict[str, str] = {}
        self._refreshers: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _get_or_create(
        self,
        cls: type,
        type_name: str,
        name: str,
        help: str,
        labels: dict[str, str] | None,
        **kwargs,
    ):
        if self._types.get(name, type_name) != type_name:
            raise ValueError(
                f"{name} already registered as a {self._types[name]}, "
                f"cannot re-register as a {type_name}"
            )
        key = (name, _labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], **kwargs)
            self._instruments[key] = instrument
            self._types[name] = type_name
            if help:
                self._help[name] = help
        return instrument

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(Counter, "counter", name, help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, "gauge", name, help, labels, callback=callback)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, "histogram", name, help, labels, buckets=buckets
        )

    # ------------------------------------------------------------------
    def on_collect(self, refresh: Callable[[], None]) -> None:
        """Run ``refresh`` before every read (:meth:`collect`, :meth:`get`,
        :meth:`value`): how instruments that mirror a count kept elsewhere
        are brought up to date, instead of being pushed to as it changes."""
        self._refreshers.append(refresh)

    def _refresh(self) -> None:
        for refresh in self._refreshers:
            refresh()

    def collect(self) -> Iterator[Instrument]:
        """All instruments, grouped by name, label-sorted within a name."""
        self._refresh()
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def type_of(self, name: str) -> str:
        return self._types.get(name, "untyped")

    def get(self, name: str, labels: dict[str, str] | None = None) -> Instrument | None:
        """Look up an instrument without creating it."""
        self._refresh()
        return self._instruments.get((name, _labels_key(labels)))

    def value(self, name: str, labels: dict[str, str] | None = None) -> float:
        """Convenience: current value of a counter/gauge (0.0 if absent)."""
        instrument = self.get(name, labels)
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise TypeError(f"{name} is a histogram; read .sum/.count instead")
        return instrument.value

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._instruments)} instruments>"

"""Metric primitives: counters and time series."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount!r})")
        self._value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self._value}>"


class TimeSeries:
    """An append-only sequence of ``(time, value)`` samples."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        if self._samples and time < self._samples[-1][0]:
            raise ValueError(
                f"time series {self.name!r} must be recorded in time order"
            )
        self._samples.append((float(time), float(value)))

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def last(self) -> Optional[Tuple[float, float]]:
        return self._samples[-1] if self._samples else None


class MetricsRegistry:
    """A namespace of counters and time series shared by one simulation."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def series(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(name)
            self._series[name] = series
        return series

    def counter_values(self) -> Dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def series_names(self) -> List[str]:
        return sorted(self._series)

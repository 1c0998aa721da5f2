"""Windowed timeseries over simulated time, with bounded memory.

End-of-run snapshots collapse dynamics: a retransmit storm that resolves
and a steady trickle of retries produce identical counters.  A
:class:`Timeline` keeps the *trajectory*: every observed quantity is
folded into fixed simulated-time windows (default: the sampling probe's
period), each window accumulating ``count/sum/min/max/first/last`` of
the samples that landed in it.

Two observation modes per series:

* ``"sample"`` -- the observed value is a state (queue depth, occupancy,
  in-flight packets); window statistics describe the state inside the
  window.
* ``"cumulative"`` -- the observed value is a monotone counter
  (retransmits, events fired, completions); the interesting per-window
  quantity is the *increase* within the window, exposed as the
  ``"delta"`` statistic.

Memory is bounded: each series is a ring of at most ``max_windows``
windows.  When a run outgrows the ring, the series *downsamples* --
window width doubles and adjacent window pairs merge -- so a timeline
always covers the whole run at the finest resolution that fits.  Long
campaigns therefore degrade resolution, never correctness or memory.

Timelines are pure observers with the same zero-perturbation guarantee
as the rest of :mod:`repro.obs`: ``observe`` reads state and appends to
Python lists, schedules nothing, and charges no simulated time, so
results are bit-identical with the timeline on or off (pinned by
``tests/obs/test_zero_perturbation.py``).

This module is dependency-free within :mod:`repro` (only
:mod:`repro.obs.probe` and :mod:`repro.obs.telemetry` feed it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: default window width: the sampling probe's 1 us period, so each probe
#: tick lands in its own window until downsampling widens them
DEFAULT_WINDOW_PS = 1_000_000

#: default ring capacity per series; 256 windows at 1 us cover 256 us of
#: run before the first downsample, and memory stays O(1) regardless
DEFAULT_MAX_WINDOWS = 256

#: values per window; a series keeps its windows back to back in one flat
#: list of numbers, so a window is no GC-tracked object
_WIDTH = 7
#: window slots, counted from the window's end: the same constant indexes
#: a one-window row and the last window of the flat list
_IDX, _COUNT, _SUM, _MIN, _MAX, _FIRST, _LAST = range(-_WIDTH, 0)

#: the statistics :meth:`Series.points` can extract per window
STATS = ("last", "first", "min", "max", "mean", "sum", "count", "delta")


class Series:
    """One named quantity folded into fixed simulated-time windows."""

    __slots__ = ("name", "mode", "window_ps", "max_windows", "_flat")

    def __init__(
        self,
        name: str,
        *,
        mode: str = "sample",
        window_ps: int = DEFAULT_WINDOW_PS,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if mode not in ("sample", "cumulative"):
            raise ValueError(f"unknown series mode {mode!r}")
        if window_ps <= 0:
            raise ValueError(f"window width must be positive: {window_ps}")
        if max_windows < 2:
            raise ValueError(f"need at least 2 windows, got {max_windows}")
        self.name = name
        self.mode = mode
        self.window_ps = window_ps
        self.max_windows = max_windows
        #: windows in ascending index order, ``_WIDTH`` values each;
        #: observation times are monotone (the engine clock), so appends
        #: suffice
        self._flat: List[float] = []

    def __len__(self) -> int:
        return len(self._flat) // _WIDTH

    def _windows(self) -> List[list]:
        """One ``_WIDTH``-value row per window, ascending."""
        flat = self._flat
        return [flat[start:start + _WIDTH] for start in range(0, len(flat), _WIDTH)]

    # ------------------------------------------------------------ recording
    def observe(self, time_ps: int, value: float) -> None:
        """Fold one observation at ``time_ps`` into its window.

        Observation times must be non-decreasing (they come from the
        simulation clock); a sample at an exact window boundary ``k*w``
        opens window ``k`` (windows are ``[k*w, (k+1)*w)``).
        """
        index = time_ps // self.window_ps
        flat = self._flat
        if flat and flat[_IDX] == index:
            flat[_COUNT] += 1
            flat[_SUM] += value
            if value < flat[_MIN]:
                flat[_MIN] = value
            if value > flat[_MAX]:
                flat[_MAX] = value
            flat[_LAST] = value
        else:
            flat.extend((index, 1, value, value, value, value, value))
            if len(flat) > self.max_windows * _WIDTH:
                self._downsample()

    def _downsample(self) -> None:
        """Double the window width; merge adjacent index pairs."""
        self.window_ps *= 2
        merged: List[float] = []
        for window in self._windows():
            window[_IDX] //= 2
            if merged and merged[_IDX] == window[_IDX]:
                merged[_COUNT] += window[_COUNT]
                merged[_SUM] += window[_SUM]
                merged[_MIN] = min(merged[_MIN], window[_MIN])
                merged[_MAX] = max(merged[_MAX], window[_MAX])
                merged[_LAST] = window[_LAST]
            else:
                merged.extend(window)
        self._flat = merged

    # -------------------------------------------------------------- reading
    def points(self, stat: str = "last") -> List[Tuple[int, float]]:
        """``(window_start_ps, value)`` per window, ascending.

        ``stat`` picks the per-window value (:data:`STATS`).  ``"delta"``
        is the increase of the ``last`` statistic against the previous
        window (against the window's own ``first`` for the first window)
        -- the per-window rate of a ``"cumulative"`` series.
        """
        if stat not in STATS:
            raise ValueError(f"unknown stat {stat!r}; expected one of {STATS}")
        out: List[Tuple[int, float]] = []
        previous_last: Optional[float] = None
        for window in self._windows():
            start_ps = window[_IDX] * self.window_ps
            if stat == "delta":
                base = window[_FIRST] if previous_last is None else previous_last
                value = window[_LAST] - base
                previous_last = window[_LAST]
            elif stat == "mean":
                value = window[_SUM] / window[_COUNT]
            elif stat == "count":
                value = window[_COUNT]
            elif stat == "sum":
                value = window[_SUM]
            elif stat == "first":
                value = window[_FIRST]
            elif stat == "min":
                value = window[_MIN]
            elif stat == "max":
                value = window[_MAX]
            else:
                value = window[_LAST]
            out.append((start_ps, value))
        return out

    @property
    def default_stat(self) -> str:
        """The statistic that best summarizes this series' mode."""
        return "delta" if self.mode == "cumulative" else "last"

    def span_ps(self) -> int:
        """Simulated time covered, first window start to last window end."""
        flat = self._flat
        if not flat:
            return 0
        first = flat[_IDX + _WIDTH] * self.window_ps
        last = (flat[_IDX] + 1) * self.window_ps
        return last - first

    # -------------------------------------------------------- serialization
    def to_obj(self) -> Dict[str, object]:
        """A JSON-serializable dump (windows as parallel-field rows)."""
        return {
            "mode": self.mode,
            "window_ps": self.window_ps,
            "windows": self._windows(),
        }

    @staticmethod
    def from_obj(name: str, obj: Dict[str, object]) -> "Series":
        """Rebuild a series from :meth:`to_obj` output."""
        series = Series(
            name, mode=obj["mode"], window_ps=obj["window_ps"]
        )
        series._flat = [value for window in obj["windows"] for value in window]
        return series


class Timeline:
    """A named registry of :class:`Series` for one run."""

    enabled = True

    def __init__(
        self,
        *,
        window_ps: int = DEFAULT_WINDOW_PS,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        self.window_ps = window_ps
        self.max_windows = max_windows
        self._series: Dict[str, Series] = {}

    def series(
        self, name: str, *, mode: str = "sample", window_ps: Optional[int] = None
    ) -> Series:
        """Get or create the series called ``name``.

        ``window_ps`` overrides the timeline's default window width at
        creation (e.g. the retransmit series uses a wider window so a
        *burst* is visible as one large per-window delta); it is ignored
        for a series that already exists.
        """
        series = self._series.get(name)
        if series is None:
            series = Series(
                name,
                mode=mode,
                window_ps=window_ps if window_ps else self.window_ps,
                max_windows=self.max_windows,
            )
            self._series[name] = series
        elif series.mode != mode:
            raise ValueError(
                f"series {name!r} already registered as {series.mode!r}, "
                f"requested {mode!r}"
            )
        return series

    def observe(self, name: str, time_ps: int, value: float) -> None:
        """Fold one observation into an existing-or-new sample series."""
        self.series(name).observe(time_ps, value)

    def names(self) -> List[str]:
        """Registered series names, sorted."""
        return sorted(self._series)

    def get(self, name: str) -> Optional[Series]:
        """The series called ``name``, or None."""
        return self._series.get(name)

    def __len__(self) -> int:
        return len(self._series)

    def to_obj(self) -> Dict[str, object]:
        """JSON-serializable dump of every series, name-sorted."""
        return {
            "window_ps": self.window_ps,
            "series": {
                name: self._series[name].to_obj() for name in self.names()
            },
        }

    @staticmethod
    def from_obj(obj: Dict[str, object]) -> "Timeline":
        """Rebuild a timeline from :meth:`to_obj` output."""
        timeline = Timeline(window_ps=obj.get("window_ps", DEFAULT_WINDOW_PS))
        for name, payload in obj.get("series", {}).items():
            timeline._series[name] = Series.from_obj(name, payload)
        return timeline

"""Integrity statistics over per-timestep protection levels.

Every metric compares, per axis, the protection level against the magnitude
of the true error and the alarm limit.  Tie conventions follow the defining
formulas: a failure needs ``pl < |err|``, an alarm ``pl > limit`` and a
position error ``|err| > limit``, all strict.  Nominal operation is their
complement, ``|err| <= pl <= limit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

T = TypeVar("T")

DIRECTIONS = ("lateral", "longitudinal", "vertical")
DIAGRAM_BINS = 40  # default bins per axis of an integrity diagram


@dataclass(frozen=True)
class PerDirection(Generic[T]):
    lateral: T
    longitudinal: T
    vertical: T

    def get(self, direction: str) -> T:
        return getattr(self, direction)

    def to_dict(self) -> dict:
        return {d: self.get(d) for d in DIRECTIONS}


@dataclass(frozen=True)
class AlarmLimits:
    """Per-axis alert thresholds in meters."""

    lateral: float = 0.85
    longitudinal: float = 1.50
    vertical: float = 1.47

    def __post_init__(self) -> None:
        if min(self.lateral, self.longitudinal, self.vertical) <= 0.0:
            raise ValueError("alarm limits must be positive")

    def get(self, direction: str) -> float:
        return getattr(self, direction)


def _magnitudes(pl: np.ndarray, error: np.ndarray, allow_empty: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 3) protection levels and true-error magnitudes of T records,
    checked: every bound finite and non-negative, every error finite, and
    at least one record unless ``allow_empty``."""
    pl, error = np.asarray(pl, dtype=float), np.asarray(error, dtype=float)
    if pl.ndim != 2 or pl.shape[1] != 3 or error.shape != pl.shape:
        raise ValueError(f"expected (T, 3) protection levels and errors, got shapes {pl.shape} and {error.shape}")
    if not (np.isfinite(pl) & (pl >= 0.0)).all():
        raise ValueError("protection levels must be finite and non-negative")
    if not np.isfinite(error).all():
        raise ValueError("errors must be finite")
    if not (allow_empty or len(pl)):
        raise ValueError("need at least one record")
    return pl, np.abs(error)


def _limits(limits: AlarmLimits) -> np.ndarray:
    return np.array([limits.lateral, limits.longitudinal, limits.vertical])


def bound_gap(pl: np.ndarray, error: np.ndarray, limits: AlarmLimits) -> PerDirection:
    """Mean slack of the bound, ``pl - |err|``, over nominal records (None in a
    direction without one); ``pl`` and ``error`` are the (T, 3) bounds and
    true errors of T records."""
    return _bound_gap(*_magnitudes(pl, error), limits)


def _bound_gap(pl: np.ndarray, err: np.ndarray, limits: AlarmLimits) -> PerDirection:
    nominal = ((err <= pl) & (pl <= _limits(limits))).T
    gaps = (pl - err).T
    values = []
    for mask, gap in zip(nominal, gaps):
        if not mask.any():
            values.append(None)
        else:  # np.mean's sum and division, of one axis's 1-D nominal subset at a time
            subset = gap[mask]
            values.append(float(np.add.reduce(subset) / len(subset)))
    return PerDirection(*values)


def failure_rate(pl: np.ndarray, error: np.ndarray) -> PerDirection:
    """Fraction of records whose bound fell below the true error magnitude."""
    return _failure_rate(*_magnitudes(pl, error))


def _failure_rate(pl: np.ndarray, err: np.ndarray) -> PerDirection:
    return PerDirection(*(np.count_nonzero(pl < err, axis=0) / len(pl)).tolist())


def false_alarm_rate(pl: np.ndarray, error: np.ndarray, limits: AlarmLimits) -> tuple[PerDirection, PerDirection]:
    """Population-weighted false-alarm rate per direction, plus degeneracy flags.

    With T records, N_PE position errors, N_FA false alarms (alarm raised,
    error within the limit) and N_TA true alarms, the rate is
    ``N_FA (T - N_PE) / (N_FA (T - N_PE) + N_TA N_PE)``.  A zero denominator
    yields 0 with the direction's flag set.
    """
    return _false_alarm_rate(*_magnitudes(pl, error), limits)


def _false_alarm_rate(pl: np.ndarray, err: np.ndarray, limits: AlarmLimits) -> tuple[PerDirection, PerDirection]:
    alarm, position_error = pl > _limits(limits), err > _limits(limits)
    counts = np.count_nonzero([position_error, alarm & ~position_error, alarm & position_error], axis=1)
    values, flags = [], []
    for n_pe, n_fa, n_ta in zip(*counts.tolist()):
        numerator = n_fa * (len(pl) - n_pe)
        denominator = numerator + n_ta * n_pe
        values.append(numerator / denominator if denominator else 0.0)
        flags.append(denominator == 0)
    return PerDirection(*values), PerDirection(*flags)


@dataclass(frozen=True)
class IntegrityReport:
    """Bound gap, failure rate and false-alarm rate with their flags."""

    n_records: int
    bound_gap: PerDirection
    failure_rate: PerDirection
    false_alarm_rate: PerDirection
    far_degenerate: PerDirection
    limits: AlarmLimits

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "bound_gap": self.bound_gap.to_dict(),
            "failure_rate": self.failure_rate.to_dict(),
            "false_alarm_rate": self.false_alarm_rate.to_dict(),
            "far_degenerate": self.far_degenerate.to_dict(),
            "no_nominal_records": {d: self.bound_gap.get(d) is None for d in DIRECTIONS},
            "alarm_limits": {d: self.limits.get(d) for d in DIRECTIONS},
        }


def summarize(pl: np.ndarray, error: np.ndarray, limits: AlarmLimits) -> IntegrityReport:
    """All scalar integrity metrics of the (T, 3) bounds and true errors of
    T records in one report, each computed for the three axes at once.

    No records produce a report with every direction flagged as lacking
    nominal records and zero rates.
    """
    pl, err = _magnitudes(pl, error, allow_empty=True)
    if not len(pl):
        none3 = PerDirection(None, None, None)
        zero3 = PerDirection(0.0, 0.0, 0.0)
        flags = PerDirection(True, True, True)
        return IntegrityReport(0, none3, zero3, zero3, flags, limits)
    far, flags = _false_alarm_rate(pl, err, limits)
    return IntegrityReport(
        n_records=len(pl),
        bound_gap=_bound_gap(pl, err, limits),
        failure_rate=_failure_rate(pl, err),
        false_alarm_rate=far,
        far_degenerate=flags,
        limits=limits,
    )


# ---------------------------------------------------------------------------
# integrity diagram


@dataclass(frozen=True)
class DiagramDirection:
    """2-d histogram of (|error|, pl) plus the standard region tallies.

    ``counts[i][j]`` covers error bin i and protection-level bin j; the last
    index along each axis is the overflow bin for values beyond twice the
    alarm limit.  The four region tallies partition the records:

    * nominal: bounded and available (|err| <= pl <= limit)
    * alarm: bounded but unavailable (pl > limit, not a failure)
    * misleading: bound broken (pl < |err|) while the error is tolerable
      or the alarm already fired
    * hazardous: bound broken, error beyond the limit, no alarm
    """

    edges: np.ndarray
    counts: np.ndarray
    nominal: int
    alarm: int
    misleading: int
    hazardous: int

    def to_dict(self) -> dict:
        return {
            "edges": [float(v) for v in self.edges],
            "counts": self.counts.astype(int).tolist(),
            "regions": {
                "nominal": self.nominal,
                "alarm": self.alarm,
                "misleading": self.misleading,
                "hazardous": self.hazardous,
            },
        }


@dataclass(frozen=True)
class IntegrityDiagram:
    n_records: int
    bins: int
    limits: AlarmLimits
    directions: dict

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "bins": self.bins,
            "alarm_limits": {d: self.limits.get(d) for d in DIRECTIONS},
            "directions": {name: dd.to_dict() for name, dd in self.directions.items()},
        }


def integrity_diagram(
    pl: np.ndarray, error: np.ndarray, limits: AlarmLimits, bins: int = DIAGRAM_BINS
) -> IntegrityDiagram:
    """Bin the (T, 3) bounds and true errors of T records into the
    (|error|, pl) plane, one grid per direction, all three at once.

    Bins are uniform over [0, 2 * limit] with one overflow bin past the end;
    region tallies follow the DiagramDirection taxonomy and always sum to
    the record count.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    pl, err = _magnitudes(pl, error, allow_empty=True)
    limit = _limits(limits)
    width = 2.0 * limit / bins
    side = bins + 1
    # one flat index per record and axis into the three (side, side) grids
    cells = (np.minimum(err // width, bins) * side + np.minimum(pl // width, bins)).astype(np.int64)
    counts = np.bincount((cells + np.arange(3) * side * side).ravel(), minlength=3 * side * side)
    fail = pl < err
    hazardous = (err > limit) & (pl <= limit)
    regions = (
        ~fail & (pl <= limit),  # nominal
        ~fail & (pl > limit),  # alarm
        fail & ~hazardous,  # misleading
        hazardous,
    )
    tallies = np.count_nonzero(regions, axis=1).tolist()
    # np.linspace(0.0, 2.0 * limit, side, axis=1) bit for bit, without its wrappers
    edges = np.arange(side) * width[:, None]
    edges[:, -1] = 2.0 * limit
    out = {
        name: DiagramDirection(*direction)
        for name, *direction in zip(DIRECTIONS, edges, counts.reshape(3, side, side), *tallies)
    }
    return IntegrityDiagram(len(pl), bins, limits, out)

"""Trajectory comparison metrics and fundamental-diagram computation.

Trajectories are aligned by absolute step index.  ADE averages pointwise
distances over the overlapping step range, FDE compares the last points
inside the focus area, and TTE is the absolute difference of in-focus
durations.  Fundamental diagrams use the classical measurement-area
method: per frame, density is the occupant count over the area and speed
is the mean backward-difference speed of the occupants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import rect_mask


@dataclass(frozen=True)
class Track:
    """Positions indexed by absolute step, for either data source."""

    ped_id: str
    steps: np.ndarray           # (n,) increasing ints
    positions: np.ndarray       # (n, 2)
    dt: float

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=int)
        pos = np.asarray(self.positions, dtype=float)
        if steps.ndim != 1 or pos.shape != (steps.size, 2):
            raise ValueError("steps must be (n,) and positions (n, 2)")
        if steps.size == 0:
            raise ValueError("empty track")
        if np.any(np.diff(steps) <= 0):
            raise ValueError("steps must be strictly increasing")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "positions", pos)


def as_track(obj) -> Track:
    """Adapt simulator or ingest trajectories to a Track."""
    if isinstance(obj, Track):
        return obj
    if hasattr(obj, "entry_step"):
        return Track(ped_id=obj.ped_id, steps=np.asarray(obj.steps, dtype=int),
                     positions=obj.positions, dt=obj.dt)
    if hasattr(obj, "t0"):
        return Track(ped_id=obj.ped_id,
                     steps=obj.t0 + np.arange(len(obj.positions)),
                     positions=obj.positions, dt=obj.dt)
    raise TypeError(f"cannot adapt {type(obj).__name__} to a Track")


def ade(sim, exp) -> float:
    """Mean pointwise distance over the steps both trajectories cover."""
    a, b = as_track(sim), as_track(exp)
    common, ia, ib = np.intersect1d(a.steps, b.steps, return_indices=True)
    if common.size == 0:
        raise ValueError(f"no overlapping steps for pedestrian {a.ped_id!r}")
    return float(np.mean(np.linalg.norm(a.positions[ia] - b.positions[ib], axis=1)))


def _inside(track: Track, area) -> np.ndarray:
    """In-focus mask of a track's positions; all True without an area."""
    if area is None:
        return np.ones(track.steps.size, dtype=bool)
    return rect_mask(area, track.positions)


def _focus_span(track: Track, inside: np.ndarray) -> tuple[int, int]:
    """Indices of the first and last in-focus positions."""
    idx = np.flatnonzero(inside)
    if idx.size == 0:
        raise ValueError(f"pedestrian {track.ped_id!r} never enters the focus area")
    return int(idx[0]), int(idx[-1])


def _fde_tte(a: Track, b: Track, a_inside, b_inside) -> tuple[float, float]:
    (a0, a1), (b0, b1) = _focus_span(a, a_inside), _focus_span(b, b_inside)
    duration_a = float((a.steps[a1] - a.steps[a0]) * a.dt)
    duration_b = float((b.steps[b1] - b.steps[b0]) * b.dt)
    return (float(np.linalg.norm(a.positions[a1] - b.positions[b1])),
            abs(duration_a - duration_b))


def fde(sim, exp, focus_area=None) -> float:
    """Distance between the final in-focus points."""
    a, b = as_track(sim), as_track(exp)
    return _fde_tte(a, b, _inside(a, focus_area), _inside(b, focus_area))[0]


def tte(sim, exp, focus_area=None) -> float:
    """Absolute difference of the in-focus travel times, in seconds."""
    a, b = as_track(sim), as_track(exp)
    return _fde_tte(a, b, _inside(a, focus_area), _inside(b, focus_area))[1]


@dataclass(frozen=True)
class MetricReport:
    run: str
    model: str
    ped_ids: tuple[str, ...]
    ade_values: np.ndarray
    fde_values: np.ndarray
    tte_values: np.ndarray

    @property
    def mean_ade(self) -> float:
        return float(np.mean(self.ade_values))

    @property
    def mean_fde(self) -> float:
        return float(np.mean(self.fde_values))

    @property
    def mean_tte(self) -> float:
        return float(np.mean(self.tte_values))

    def to_rows(self) -> list[list]:
        return [[self.run, self.model, pid, float(a), float(f), float(t)]
                for pid, a, f, t in zip(self.ped_ids, self.ade_values,
                                        self.fde_values, self.tte_values)]


def evaluate_run(sim_trajectories, exp_trajectories, run: str, model: str,
                 focus_area=None) -> MetricReport:
    """Per-pedestrian ADE/FDE/TTE over the ids present on both sides.

    Ids present on only one side are excluded with a warning naming them,
    and so are pedestrians whose recorded track never enters the focus
    area, with a warning giving their count.
    """
    sim_by_id = {t.ped_id: t for t in map(as_track, sim_trajectories)}
    exp_by_id = {t.ped_id: t for t in map(as_track, exp_trajectories)}
    matched = sorted(sim_by_id.keys() & exp_by_id.keys())
    missing = sorted(sim_by_id.keys() ^ exp_by_id.keys())
    if missing:
        warnings.warn(f"run {run!r}: excluding unmatched pedestrian ids "
                      f"{missing}", RuntimeWarning)
    if not matched:
        raise ValueError(f"run {run!r}: no pedestrian ids in common")
    exp_inside = {pid: _inside(exp_by_id[pid], focus_area) for pid in matched}
    if focus_area is not None:
        entering = [pid for pid in matched if exp_inside[pid].any()]
        if len(entering) < len(matched):
            warnings.warn(f"run {run!r}: excluding {len(matched) - len(entering)} "
                          "pedestrians whose recorded track never enters the focus area",
                          RuntimeWarning)
        if not entering:
            raise ValueError(f"run {run!r}: no recorded track enters the focus area")
        matched = entering
    ades, fdes, ttes = [], [], []
    for pid in matched:
        sim, exp = sim_by_id[pid], exp_by_id[pid]
        ades.append(ade(sim, exp))
        f, t = _fde_tte(sim, exp, _inside(sim, focus_area), exp_inside[pid])
        fdes.append(f)
        ttes.append(t)
    return MetricReport(run=run, model=model, ped_ids=tuple(matched),
                        ade_values=np.asarray(ades), fde_values=np.asarray(fdes),
                        tte_values=np.asarray(ttes))


@dataclass(frozen=True)
class FDPoint:
    time: float         # s
    density: float      # persons/m^2
    speed: float        # m/s
    flow: float         # persons/(m*s)


def fundamental_diagram(trajectories, area, dt: float) -> list[FDPoint]:
    """Classical per-frame measurement: density, mean speed, and flow.

    Frames with no occupants are omitted, as are frames whose occupants all
    lack a backward-difference speed (their first recorded step).
    """
    xmin, ymin, xmax, ymax = (float(v) for v in area)
    size = (xmax - xmin) * (ymax - ymin)
    if size <= 0:
        raise ValueError("measurement area must have positive size")
    frames, inside, speeds, moved = [], [], [], []
    for track in map(as_track, trajectories):
        step = np.diff(track.positions, axis=0)
        frames.append(track.steps)
        inside.append(rect_mask(area, track.positions))
        speeds.append(np.append(np.nan, np.sqrt(np.vecdot(step, step)) / track.dt))
        moved.append(np.diff(track.steps, prepend=track.steps[0]) == 1)
    if not frames:
        return []
    # Occupants grouped by frame, in track order within a frame.
    frame = np.concatenate(frames)
    keep = np.concatenate(inside)
    order = np.flatnonzero(keep)[np.argsort(frame[keep], kind="stable")]
    frame, speed, moved = (frame[order], np.concatenate(speeds)[order],
                           np.concatenate(moved)[order])
    ids, first, count = np.unique(frame, return_index=True, return_counts=True)
    points = []
    for f, lo, n in zip(ids.tolist(), first.tolist(), count.tolist()):
        occupant_speeds = speed[lo:lo + n][moved[lo:lo + n]]
        if occupant_speeds.size == 0:
            continue
        density = n / size
        mean = float(np.mean(occupant_speeds))
        points.append(FDPoint(time=f * dt, density=density, speed=mean,
                              flow=density * mean))
    return points


@dataclass(frozen=True)
class SensitivitySummary:
    """Mean metrics per parameter combination plus max-minus-min spreads."""

    rows: tuple[tuple, ...]     # (vision_range, sector_deg, ade, fde, tte)
    spread_ade: float
    spread_fde: float
    spread_tte: float


def parameter_sensitivity(reports) -> SensitivitySummary:
    """Aggregate MetricReports keyed by (D_e, beta) parameter combinations.

    ``reports`` is an iterable of ((vision_range, sector_width), MetricReport);
    several reports under one combination are averaged.
    """
    grouped: dict[tuple, list[MetricReport]] = {}
    for combo, report in reports:
        grouped.setdefault((float(combo[0]), float(combo[1])), []).append(report)
    if len(grouped) < 2:
        raise ValueError("sensitivity analysis needs at least 2 parameter combinations")
    rows = []
    for combo in sorted(grouped):
        batch = grouped[combo]
        rows.append((combo[0], combo[1],
                     float(np.mean([r.mean_ade for r in batch])),
                     float(np.mean([r.mean_fde for r in batch])),
                     float(np.mean([r.mean_tte for r in batch]))))
    arr = np.asarray([[r[2], r[3], r[4]] for r in rows])
    spreads = arr.max(axis=0) - arr.min(axis=0)
    return SensitivitySummary(rows=tuple(rows), spread_ade=float(spreads[0]),
                              spread_fde=float(spreads[1]), spread_tte=float(spreads[2]))

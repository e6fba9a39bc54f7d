"""Trajectory file parsing, focus clipping, and training-sample assembly.

Input files are plain text with one row per (pedestrian, frame):
``ped_id frame x y`` separated by whitespace or commas; extra columns are
ignored, blank lines and lines starting with ``#`` are skipped.  Coordinates
are multiplied by ``unit_scale`` (default 0.01: centimetres to metres) and
frames are spaced ``1/fps`` seconds apart.

Velocities are backward differences, ``v[t] = (p[t] - p[t-1]) / dt``, stored
at index t with index 0 left NaN.  This makes the simulator update
``p[t+1] = p[t] + v[t+1]*dt`` the exact inverse of the differencing.
Training samples take their features from `features.extract_batch`, as the
simulator does, many frames per call; each sample window indexes rows of
one feature array that holds every extracted row once.

Only this module reads archives (`load_dataset`), and `Run.tracks` alone
sets a run's step origin, its earliest track, for seeds and metrics alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .features import ExtractionParams, extract_batch
from .geometry import Scene, containing_rows, rect_mask
from .metrics import Track

DATASET_FORMAT = "crowdsim-dataset-v1"

MAX_GAP_FRAMES = 5

# Subject rows per `extract_batch` call in build_samples: about one crowd
# step's worth, which amortises the call's fixed cost while its temporaries
# stay a few MiB.
_CHUNK_ROWS = 128

DATASET_ROLES = ("train_val", "test")


@dataclass(frozen=True)
class Trajectory:
    """One pedestrian's contiguous track: positions in metres, dt in seconds."""

    ped_id: str
    t0: int
    dt: float
    positions: np.ndarray       # (n, 2) float64
    velocities: np.ndarray      # (n, 2) float64, row 0 is NaN

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (n>=2, 2), got {pos.shape}")
        if vel.shape != pos.shape:
            raise ValueError("velocities must match positions in shape")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class Run:
    """A named experiment run: trajectories sharing one absolute frame clock."""

    name: str
    trajectories: tuple[Trajectory, ...]

    def tracks(self, dt: float) -> list[Track]:
        """The run's trajectories as Tracks at interval dt, steps counted
        from its earliest track, even one too short to seed: the simulator's
        seeds (`simulate.seeds_from_run`) and the metrics share them."""
        origin = min((t.t0 for t in self.trajectories), default=0)
        return [Track(ped_id=t.ped_id, steps=t.t0 - origin + np.arange(len(t)),
                      positions=t.positions, dt=dt) for t in self.trajectories]


@dataclass(frozen=True)
class Dataset:
    """Runs recorded in one scene at one frame interval."""

    scene: Scene
    runs: tuple[Run, ...]
    role: str
    dt: float

    def __post_init__(self):
        if self.role not in DATASET_ROLES:
            raise ValueError(f"role must be one of {DATASET_ROLES}, got {self.role!r}")
        for run in self.runs:
            for traj in run.trajectories:
                if abs(traj.dt - self.dt) > 1e-12:
                    raise ValueError(
                        f"trajectory dt {traj.dt} in run {run.name!r} differs from dataset dt {self.dt}"
                    )


@dataclass(frozen=True)
class Windows:
    """Sample windows over shared feature rows, each row stored once.

    Window i is rows[first[i] : first[i] + window].  Indexing with a batch
    index array or a slice gathers the batch into one C-contiguous
    time-major (window, B, D) buffer and returns its (B, window, D)
    transposed view: the values of the stacked (n, window, D) array at
    those indices, in the layout the network's blocks convolve over, so
    they take it without a copy.  Holding n windows costs R·D·8 + n·8
    bytes instead of n·window·D·8.
    """

    rows: np.ndarray            # (R, D) float64
    first: np.ndarray           # (n,) row of each window's oldest step
    window: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return len(self.first), self.window, self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, idx) -> np.ndarray:
        steps = np.add.outer(np.arange(self.window), self.first[idx])
        return np.moveaxis(self.rows[steps], 0, -2)


@dataclass(frozen=True)
class SampleSet:
    """Training samples in one order: windows over shared feature rows,
    (n, 2) next-step velocity targets and (run, ped_id, t) metadata.

    `split` hands training the windows themselves.
    """

    windows: Windows
    targets: np.ndarray         # (n, 2)
    meta: tuple[tuple[str, str, int], ...]

    def __len__(self) -> int:
        return len(self.targets)

    def split(self, ratio: int = 4, seed: int = 0):
        """The `split_train_val` split as (x_train, y_train, x_val, y_val),
        both windows over this set's rows."""
        tr, va = (np.array(part, dtype=np.intp)
                  for part in split_train_val(range(len(self)), ratio, seed))
        return (replace(self.windows, first=self.windows.first[tr]), self.targets[tr],
                replace(self.windows, first=self.windows.first[va]), self.targets[va])

    @staticmethod
    def concatenate(sets) -> "SampleSet":
        """One set holding the samples of ``sets`` in order; a single set is
        returned as is, so its rows are not copied."""
        if len(sets) == 1:
            return sets[0]
        offsets = np.cumsum([0] + [len(s.windows.rows) for s in sets[:-1]])
        return SampleSet(
            Windows(np.concatenate([s.windows.rows for s in sets]),
                    np.concatenate([s.windows.first + o for s, o in zip(sets, offsets)]),
                    sets[0].windows.window),
            np.concatenate([s.targets for s in sets]),
            tuple(m for s in sets for m in s.meta))


def _derive_velocities(positions: np.ndarray, dt: float) -> np.ndarray:
    vel = np.full_like(positions, np.nan)
    vel[1:] = np.diff(positions, axis=0) / dt
    return vel


def parse_trajectories(path, unit_scale: float = 0.01, fps: float = 25.0,
                       max_gap: int = MAX_GAP_FRAMES) -> list[Trajectory]:
    """Parse a trajectory file into per-pedestrian tracks.

    Frame gaps of up to ``max_gap`` missing frames are filled by linear
    interpolation; a pedestrian with any larger gap is dropped, as is one
    with fewer than two rows.  Malformed rows and non-increasing frame
    numbers raise ValueError naming the 1-based line number.
    """
    if not fps > 0:
        raise ValueError("fps must be positive")
    if not 0 < unit_scale < np.inf:
        raise ValueError(f"unit_scale must be finite and positive, got {unit_scale!r}")
    dt = 1.0 / fps
    frames: dict[str, list[int]] = {}
    points: dict[str, list[tuple[float, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.replace(",", " ").split()
            if len(tokens) < 4:
                raise ValueError(f"line {lineno}: expected ped_id, frame, x, y")
            ped = tokens[0]
            try:
                frame = int(tokens[1])
                x = float(tokens[2])
                y = float(tokens[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from None
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ValueError(f"line {lineno}: non-finite coordinate")
            if not (np.isfinite(x * unit_scale) and np.isfinite(y * unit_scale)):
                raise ValueError(f"line {lineno}: coordinate ({x!r}, {y!r}) is not finite "
                                 f"after scaling by unit_scale {unit_scale!r}")
            if ped in frames and frame <= frames[ped][-1]:
                raise ValueError(
                    f"line {lineno}: non-monotonic frame {frame} for pedestrian {ped}"
                )
            frames.setdefault(ped, []).append(frame)
            points.setdefault(ped, []).append((x, y))

    out: list[Trajectory] = []
    for ped, fs in frames.items():
        if len(fs) < 2:
            continue
        fs_arr = np.asarray(fs, dtype=int)
        gaps = np.diff(fs_arr) - 1
        if int(gaps.max(initial=0)) > max_gap:
            continue
        raw_pos = np.asarray(points[ped], dtype=float) * unit_scale
        full = np.arange(fs_arr[0], fs_arr[-1] + 1)
        pos = np.column_stack([
            np.interp(full, fs_arr, raw_pos[:, 0]),
            np.interp(full, fs_arr, raw_pos[:, 1]),
        ])
        out.append(Trajectory(ped_id=ped, t0=int(fs_arr[0]), dt=dt,
                              positions=pos, velocities=_derive_velocities(pos, dt)))
    return out


def _longest_true_run(mask: np.ndarray) -> Optional[tuple[int, int]]:
    """(start, stop) of the longest contiguous True run, earliest on ties."""
    best = None
    best_len = 0
    start = None
    for i, flag in enumerate(list(mask) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best_len:
                best, best_len = (start, i), i - start
            start = None
    return best


def clip_to_focus(trajs, area, window: int = 8) -> list[Trajectory]:
    """Truncate each track to its longest contiguous sub-series inside ``area``.

    Velocities are recomputed on the clipped series; tracks left shorter
    than ``window + 1`` positions are dropped.
    """
    out: list[Trajectory] = []
    for traj in trajs:
        run = _longest_true_run(rect_mask(area, traj.positions))
        if run is None:
            continue
        start, stop = run
        if stop - start < window + 1:
            continue
        pos = traj.positions[start:stop].copy()
        out.append(Trajectory(ped_id=traj.ped_id, t0=traj.t0 + start, dt=traj.dt,
                              positions=pos,
                              velocities=_derive_velocities(pos, traj.dt)))
    return out


def _row_modules(subject: Trajectory, scene: Scene, window: int) -> np.ndarray:
    """Module, as its `Scene.wall_table` row, of each local step that forms
    a sample row (1 … n-2), else -1: an (n,) int array.

    A row step outside every module, or a non-finite velocity at any step
    1 … n-1 (a row's, a target, or a neighbour's on a track too short for
    samples), raises ValueError.  Errors come in step order, a velocity
    counting at the row step before it.
    """
    n = len(subject)
    modules = np.full(n, -1)
    bad = np.flatnonzero(~np.isfinite(subject.velocities[1:]).all(axis=1))
    nonfinite = 1 + int(bad[0]) if bad.size else n
    outside = n
    if n - 1 > window:          # else no sample, so no row steps
        modules[1:-1] = containing_rows(scene, subject.positions[1:-1])
        out = np.flatnonzero(modules[1:-1] < 0)
        outside = 1 + int(out[0]) if out.size else n
    if outside < nonfinite:
        raise ValueError(f"pedestrian {subject.ped_id} at "
                         f"{tuple(subject.positions[outside].tolist())} lies outside every module")
    if nonfinite < n:
        what = "target velocity" if nonfinite > window else "velocity"
        raise ValueError(f"non-finite {what} for pedestrian {subject.ped_id} at step {nonfinite}")
    return modules


def build_samples(dataset: Dataset, params: ExtractionParams) -> SampleSet:
    """Emit one sample per (pedestrian, t) with a full window and a target.

    Valid t ranges over [w, n-2]: every window row needs a defined velocity
    (local step >= 1) and the target is v[t+1].  A track with n positions
    yields max(0, n - 1 - w) samples, in run, track and t order.  Each row
    step of a track that yields samples (1 … n-2) is one row of the set's
    feature array, tracks in run order and steps in order, so a window is
    w consecutive rows and every row is stored once.  The rows are filled
    by one `extract_batch` call per chunk of consecutive frames of a run,
    the frame being the group: everyone present is a neighbour, only row
    steps are subjects.  A chunk holds about _CHUNK_ROWS subject rows; the
    call's temporaries grow with its rows, so one call per run would cost
    hundreds of MiB on a long recording.
    """
    w = params.window
    runs = [(run, np.concatenate([_row_modules(traj, dataset.scene, w)
                                  for traj in run.trajectories]))
            for run in dataset.runs if run.trajectories]
    rows = np.empty((sum(int(np.count_nonzero(table_row >= 0)) for _, table_row in runs),
                     params.feature_dim))
    first, targets, meta = [np.zeros(0, dtype=np.intp)], [np.zeros((0, 2))], []
    offset = 0                          # rows of the runs before this one
    for run, table_row in runs:
        tracks = run.trajectories
        starts = np.cumsum([0] + [len(traj) for traj in tracks[:-1]])
        frame = np.concatenate([traj.t0 + np.arange(len(traj)) for traj in tracks])
        pos = np.concatenate([traj.positions for traj in tracks])
        vel = np.concatenate([traj.velocities for traj in tracks])
        vel[starts] = 0.0                   # a track's undefined first velocity reads as zero
        is_row = table_row >= 0
        row_of = offset + np.cumsum(is_row) - 1
        # Every entry in frame order, tracks in run order within a frame;
        # a frame joins the chunk in which its first row would fall.
        order = np.argsort(frame, kind="stable")
        first_of_frame = np.unique(frame[order], return_index=True)[1]
        chunk = (np.cumsum(is_row[order]) - is_row[order])[first_of_frame] // _CHUNK_ROWS
        bounds = np.append(first_of_frame[np.flatnonzero(np.diff(chunk, prepend=-1))],
                           len(order))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            idx = order[lo:hi]
            rows[row_of[idx[is_row[idx]]]] = extract_batch(
                pos[idx], vel[idx], table_row[idx], dataset.scene, params, groups=frame[idx])
        for start, traj in zip(starts, tracks):
            count = max(0, len(traj) - 1 - w)
            if count:                       # window of t starts at row step t - w + 1
                first.append(row_of[start + 1] + np.arange(count))
                targets.append(traj.velocities[w + 1:])
                meta += [(run.name, traj.ped_id, t) for t in range(w, len(traj) - 1)]
        offset += int(is_row.sum())
    return SampleSet(Windows(rows, np.concatenate(first), w), np.concatenate(targets),
                     tuple(meta))


def split_train_val(samples, ratio: int = 4, seed: int = 0):
    """Disjoint exhaustive random split with train:val = ratio:1."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    n = len(samples)
    perm = np.random.default_rng(seed).permutation(n)
    n_val = n // (ratio + 1)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return [samples[i] for i in train_idx], [samples[i] for i in val_idx]


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {
        "ped_id": traj.ped_id,
        "t0": traj.t0,
        "dt": traj.dt,
        "positions": [[float(x), float(y)] for x, y in traj.positions],
        "velocities": [[float(vx), float(vy)] for vx, vy in traj.velocities[1:]],
    }


def trajectory_from_dict(doc: dict) -> Trajectory:
    pos = np.asarray(doc["positions"], dtype=float)
    vel = np.full_like(pos, np.nan)
    stored = np.asarray(doc["velocities"], dtype=float)
    if stored.shape != (pos.shape[0] - 1, 2):
        raise ValueError("velocity rows must cover steps 1..n-1")
    vel[1:] = stored
    return Trajectory(ped_id=str(doc["ped_id"]), t0=int(doc["t0"]),
                      dt=float(doc["dt"]), positions=pos, velocities=vel)


def dataset_to_dict(dataset: Dataset, scene_ref: str) -> dict:
    """JSON-ready archive; NaN first-row velocities are left implicit."""
    return {
        "format": DATASET_FORMAT,
        "scene": scene_ref,
        "role": dataset.role,
        "dt": dataset.dt,
        "runs": [
            {"name": run.name,
             "trajectories": [trajectory_to_dict(t) for t in run.trajectories]}
            for run in dataset.runs
        ],
    }


def dataset_from_dict(doc: dict, scene: Scene) -> Dataset:
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError(f"unsupported dataset format {doc.get('format')!r}")
    runs = tuple(
        Run(name=str(r["name"]),
            trajectories=tuple(trajectory_from_dict(t) for t in r["trajectories"]))
        for r in doc["runs"]
    )
    return Dataset(scene=scene, runs=runs, role=str(doc["role"]), dt=float(doc["dt"]))


def load_dataset(path, scene: Scene) -> Dataset:
    """The archive at path; a wrong format, a missing key or a wrong type
    names the file."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError(f"{path}: not a {DATASET_FORMAT} archive")
    try:
        return dataset_from_dict(doc, scene)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed archive ({exc})") from exc

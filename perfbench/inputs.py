"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a numpy Generator and writes or returns plain data;
the same seed gives byte-identical files.  Set-up is not traced; the crowd
archive is built with the public `ingest.dataset_to_dict` and
`io.write_json`, because `crowdsim ingest` cannot ingest the composite scene.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from crowdsim.geometry import Scene, point_in_module, save_scene
from crowdsim.ingest import Dataset, Run, Trajectory, dataset_to_dict
from crowdsim.io import write_json

# --- train: raw corridor recordings ------------------------------------------

CORRIDOR_FPS = 16.0
CORRIDOR_LENGTH = 6.0           # m, matches scene_library.make_corridor()
CORRIDOR_WIDTH = 3.0
TRAIN_FILES = 8
TRAIN_PEDS_PER_FILE = 6
TRAIN_FRAMES = 40               # per track; every track stays in the focus area


def write_corridor_recordings(rng: np.random.Generator, out_dir: Path) -> list[Path]:
    """Raw `ped_id frame x y` files (centimetres) of a unidirectional corridor.

    Each file holds several pedestrians walking +x at the same time, with
    varied speeds, lanes and lateral sway, so that the social radar sees
    neighbours.  Track length is fixed, so the sample count is seed-free:
    TRAIN_FILES * TRAIN_PEDS_PER_FILE * (TRAIN_FRAMES - 1 - window).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    dt = 1.0 / CORRIDOR_FPS
    t = np.arange(TRAIN_FRAMES) * dt
    lanes = np.linspace(0.5, CORRIDOR_WIDTH - 0.5, TRAIN_PEDS_PER_FILE)
    paths = []
    for f in range(TRAIN_FILES):
        lines = [f"# synthetic corridor run {f}: ped_id frame x_cm y_cm"]
        for p in range(TRAIN_PEDS_PER_FILE):
            speed = rng.uniform(0.9, 1.5)
            span = speed * t[-1]
            x0 = rng.uniform(0.2, CORRIDOR_LENGTH - 0.2 - span)
            y0 = lanes[p] + rng.uniform(-0.15, 0.15)
            sway = rng.uniform(0.03, 0.12) * np.sin(
                2.0 * np.pi * rng.uniform(0.5, 1.0) * t + rng.uniform(0.0, 2.0 * np.pi))
            drift = rng.uniform(-0.1, 0.1) * t
            x = x0 + speed * t
            y = np.clip(y0 + sway + drift, 0.25, CORRIDOR_WIDTH - 0.25)
            start = int(rng.integers(0, 20))
            for k in range(TRAIN_FRAMES):
                lines.append(f"{p + 1} {start + k} {100.0 * x[k]:.2f} {100.0 * y[k]:.2f}")
        path = out_dir / f"run{f:02d}.txt"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


# --- crowd: a near-capacity crowd in the composite scene ---------------------

CROWD_FPS = 16.0
CROWD_SPACING = 0.75            # lattice pitch, m
CROWD_JITTER = 0.05             # keeps every pair >= 2 * 0.3 m apart
WALL_MARGIN = 0.35              # m from module boundaries and solid walls
ENTRY_EVERY = 4                 # steps between entrants, per entry
TRACK_EXTRA = 4                 # recorded steps beyond the seed window


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _track(start: np.ndarray, heading: np.ndarray, speed: float, n: int,
           dt: float) -> np.ndarray:
    return start[None, :] + (np.arange(n) * speed * dt)[:, None] * heading[None, :]


def _wall_distance(walls: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of the wall segments."""
    a, b = walls[:, 0][None], walls[:, 1][None]
    ab = b - a
    t = np.clip(((pts[:, None] - a) * ab).sum(-1) / (ab * ab).sum(-1), 0.0, 1.0)
    return np.linalg.norm(pts[:, None] - (a + t[..., None] * ab), axis=-1).min(axis=1)


def _rect(module) -> tuple[float, float, float, float]:
    b = module.boundary
    return (float(b[:, 0].min()), float(b[:, 1].min()),
            float(b[:, 0].max()), float(b[:, 1].max()))


def crowd_tracks(rng: np.random.Generator, scene, window: int,
                 max_steps: int) -> list[tuple[str, int, np.ndarray]]:
    """(ped_id, t0, positions) tracks for a crowd filled close to capacity.

    Pedestrians start on every place of a jittered lattice across all
    modules that is WALL_MARGIN clear of its module's boundary, each walking
    toward its module's exit, except where a recorded position would leave
    the scene or come closer than WALL_MARGIN to a solid wall.  Every place
    is tried in lattice order, so the crowd's layout, and with it the work
    of a run, changes little with the seed.  Later entrants arrive every
    ENTRY_EVERY steps through the bottleneck room's entry face and the
    T-junction's top gap until the last entry that still completes its
    seed window before max_steps.
    """
    dt = 1.0 / CROWD_FPS
    n = window + TRACK_EXTRA
    walls = np.concatenate([m.walls for m in scene.modules])
    candidates = []
    for module in scene.modules:
        xmin, ymin, xmax, ymax = _rect(module)
        exit_mid = module.exit.mean(axis=0)
        xs = np.arange(xmin + WALL_MARGIN + CROWD_JITTER, xmax - WALL_MARGIN - CROWD_JITTER + 1e-9,
                       CROWD_SPACING)
        ys = np.arange(ymin + WALL_MARGIN + CROWD_JITTER, ymax - WALL_MARGIN - CROWD_JITTER + 1e-9,
                       CROWD_SPACING)
        for x in xs:
            for y in ys:
                candidates.append((np.array([x, y]), exit_mid))
    tracks = []
    for p, exit_mid in candidates:
        p = p + rng.uniform(-CROWD_JITTER, CROWD_JITTER, size=2)
        positions = _track(p, _unit(exit_mid - p), rng.uniform(1.0, 1.4), n, dt)
        if (_wall_distance(walls, positions).min() < WALL_MARGIN
                or any(point_in_module(scene, q) is None for q in positions)):
            continue
        tracks.append((f"p{len(tracks):03d}", 0, positions))

    bottleneck = scene.module("bottleneck")
    t_junction = scene.module("t_junction")
    gap = t_junction.entries[0]
    gap_x = np.sort(gap[:, 0])
    entrant = 0
    for t0 in range(window, max_steps - window, ENTRY_EVERY):
        # bottleneck room: enter through the left face, head for the gap
        bx0, by0, _, by1 = _rect(bottleneck)
        start = np.array([bx0 + 0.1, rng.uniform(by0 + 0.5, by1 - 0.5)])
        head = _unit(bottleneck.exit.mean(axis=0) - start)
        tracks.append((f"e{entrant:03d}", t0,
                       _track(start, head, rng.uniform(1.0, 1.4), n, dt)))
        entrant += 1
        # T-junction: drop in through the top gap, head for the stem
        start = np.array([rng.uniform(gap_x[0] + 0.15, gap_x[1] - 0.15), gap[0, 1] - 0.1])
        head = _unit(t_junction.exit.mean(axis=0) - start)
        tracks.append((f"e{entrant:03d}", t0,
                       _track(start, head, rng.uniform(1.0, 1.4), n, dt)))
        entrant += 1
    return tracks


def write_crowd_archive(rng: np.random.Generator, scene, path: Path, window: int,
                        max_steps: int) -> int:
    """Write a crowdsim-dataset-v1 archive holding one run, 'crowd'.

    Returns the number of pedestrians in the archive.
    """
    dt = 1.0 / CROWD_FPS
    trajs = []
    for ped_id, t0, positions in crowd_tracks(rng, scene, window, max_steps):
        vel = np.full_like(positions, np.nan)
        vel[1:] = np.diff(positions, axis=0) / dt
        trajs.append(Trajectory(ped_id=ped_id, t0=t0, dt=dt, positions=positions,
                                velocities=vel))
    dataset = Dataset(scene=scene, runs=(Run(name="crowd", trajectories=tuple(trajs)),),
                      role="test", dt=dt)
    write_json(path, dataset_to_dict(dataset, scene_ref="composite"), "synthetic")
    return len(trajs)


def write_focus_free_scene(scene, path: Path) -> None:
    """The scene with every focus area removed, for whole-scene evaluation."""
    save_scene(Scene(modules=tuple(replace(m, focus_area=None) for m in scene.modules),
                     successor=dict(scene.successor)), path)

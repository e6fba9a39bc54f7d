"""Closed-loop crowd simulation driven by a next-step velocity model.

Each step is synchronous: features for every active pedestrian are extracted
against the frozen step-t snapshot, proposals p[t+1] = p[t] + v_hat*dt are
computed from that snapshot, and all commits happen together at step end, so
processing order cannot influence the outcome.

Pedestrians enter at their configured entry step and replay their seeded
window positions verbatim; prediction starts once the window is full.  A
predicted move that would cross an active wall triggers a history reset:
the most recent simulated steps (never the seeded prefix) are replaced by a
guided constant-speed path 0.05 m clear of the violated wall, aimed along
the wall toward the exit (or straight at the exit midpoint in bottleneck
modules), and the window features for those steps are re-extracted against
the recorded neighbor snapshots, all of a step's rewrites in one call at
step end.  If the guided path itself would cross a wall the pedestrian holds
position instead.

Pedestrians crossing the exit segment of a terminal module are deactivated;
crossing an internal junction re-binds them to the module that contains the
new position, with a small snap for numerical overshoot at shared borders.

`Simulator` owns this run lifecycle for every model.  Only two methods
depend on the model: `_propose` (the next positions of the pedestrians past
their seeded prefix) and `_stranded` (a move out of every module with
nothing to snap to); the social-force baseline overrides both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .features import ExtractionParams, extract_batch
from .geometry import (
    Scene,
    active_walls,
    closest_point_on_segment,
    closest_points_on_segments,
    first_wall_crossing,
    first_wall_crossings,
    point_in_module,
    point_in_modules,
    point_segment_distance,
)

WALL_CLEARANCE = 0.05
MIN_GUIDED_SPEED = 0.1
JUNCTION_SNAP = 0.02


class ConstantVelocityOracle:
    """Model stub predicting one fixed velocity for every window."""

    def __init__(self, velocity):
        self.velocity = np.asarray(velocity, dtype=float).reshape(2)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.tile(self.velocity, (x.shape[0], 1))


class ZeroVelocityOracle(ConstantVelocityOracle):
    """Model stub that keeps every pedestrian exactly in place."""

    def __init__(self):
        super().__init__((0.0, 0.0))


@dataclass(frozen=True)
class PedestrianSeed:
    """Entry step plus the w seed positions replayed before prediction."""

    ped_id: str
    entry_step: int
    positions: np.ndarray       # (w, 2)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"seed positions must be (w, 2), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError(f"non-finite seed position for pedestrian {self.ped_id}")
        if self.entry_step < 0:
            raise ValueError("entry_step must be >= 0")
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class SimulationConfig:
    scene: Scene
    dt: float
    pedestrians: tuple[PedestrianSeed, ...]
    params: ExtractionParams
    max_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        modules = iter(point_in_modules(
            self.scene, [p for seed in self.pedestrians for p in seed.positions]))
        seen = set()
        for seed in self.pedestrians:
            if seed.ped_id in seen:
                raise ValueError(f"duplicate pedestrian id {seed.ped_id!r}")
            seen.add(seed.ped_id)
            if seed.positions.shape[0] != self.params.window:
                raise ValueError(
                    f"pedestrian {seed.ped_id}: expected {self.params.window} seed "
                    f"positions, got {seed.positions.shape[0]}"
                )
            # zip draws one module per seed position, then stops
            for p, module_id in zip(seed.positions, modules):
                if module_id is None:
                    raise ValueError(
                        f"pedestrian {seed.ped_id}: seed position {tuple(p.tolist())} "
                        "lies outside every module"
                    )


@dataclass(frozen=True)
class SimulatedTrajectory:
    ped_id: str
    entry_step: int
    dt: float
    positions: np.ndarray       # (n, 2)
    module_ids: tuple[str, ...]
    reset_flags: np.ndarray     # (n,) bool
    exited: bool
    truncated: bool

    @property
    def steps(self) -> np.ndarray:
        return np.arange(self.entry_step, self.entry_step + len(self.positions))


@dataclass(frozen=True)
class SimulationResult:
    scene: Scene
    dt: float
    trajectories: tuple[SimulatedTrajectory, ...]
    truncated: bool

    def to_rows(self, run_name: str) -> list[list]:
        """Rows (run, ped_id, step, time_s, x_m, y_m, module_id, reset_flag)."""
        rows = []
        for traj in sorted(self.trajectories, key=lambda t: t.ped_id):
            for i, step in enumerate(traj.steps):
                rows.append([
                    run_name, traj.ped_id, int(step), float(step * self.dt),
                    float(traj.positions[i, 0]), float(traj.positions[i, 1]),
                    traj.module_ids[i], int(traj.reset_flags[i]),
                ])
        return rows


@dataclass
class _PedRuntime:
    seed: PedestrianSeed
    window: deque                           # feature rows of the last w steps
    state: str = "pending"                  # pending | active | done
    module_id: Optional[str] = None
    positions: list = field(default_factory=list)
    velocities: list = field(default_factory=list)
    modules: list = field(default_factory=list)
    reset_flags: list = field(default_factory=list)
    exited: bool = False
    truncated: bool = False
    _proposal: Optional[np.ndarray] = None
    _velocity: Optional[np.ndarray] = None   # model velocity, kept if _proposal commits as is
    _predicted: bool = False
    _reset_now: bool = False

    @property
    def ped_id(self) -> str:
        return self.seed.ped_id

    @property
    def entry(self) -> int:
        return self.seed.entry_step


@dataclass(frozen=True)
class _Snapshot:
    """Positions and velocities of the active pedestrians at one step, in id order."""

    index: dict[str, int]
    pos: np.ndarray             # (N, 2)
    vel: np.ndarray             # (N, 2)

    def others(self, ped_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Every pedestrian but ped_id, in id order: one subject's neighbours."""
        i = self.index[ped_id]
        return (np.concatenate((self.pos[:i], self.pos[i + 1:])),
                np.concatenate((self.vel[:i], self.vel[i + 1:])))


def snap_to_module(scene: Scene, p: np.ndarray, tolerance: float = JUNCTION_SNAP):
    """Snap a point just outside all modules onto the nearest boundary.

    Returns (snapped point, module id), or None when the point is farther
    than ``tolerance`` from every module.
    """
    ids = [m.id for m in scene.modules for _ in m.boundary]
    c, d = closest_points_on_segments(
        p, np.concatenate([m.boundary for m in scene.modules]),
        np.concatenate([np.roll(m.boundary, -1, axis=0) for m in scene.modules]))
    best = int(np.argmin(d))            # the first edge, in module order, at the minimum
    if not d[best] <= tolerance:
        return None
    return c[best], ids[best]


class Simulator:
    """Synchronous stepping engine; construct once per run and call run()."""

    def __init__(self, config: SimulationConfig, predictor):
        self.config = config
        self.predictor = predictor
        self.step_index = 0
        self._peds = {s.ped_id: _PedRuntime(seed=s, window=deque(maxlen=config.params.window))
                      for s in config.pedestrians}
        self._order = sorted(self._peds)
        self._snapshots: deque = deque(maxlen=config.params.window)
        self._rewrites: list = []           # window rows re-extracted at step end
        scene = config.scene
        self._walls = {m.id: active_walls(scene, m.id) for m in scene.modules}
        self._exits = {m.id: m.exit[None] for m in scene.modules}

    # -- queries ----------------------------------------------------------

    def _active(self) -> list[_PedRuntime]:
        return [self._peds[pid] for pid in self._order if self._peds[pid].state == "active"]

    def _has_pending(self) -> bool:
        return any(p.state == "pending" for p in self._peds.values())

    # -- stepping ---------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        t = self.step_index
        w = cfg.params.window

        entering = [p for p in map(self._peds.get, self._order)
                    if p.state == "pending" and p.entry == t]
        starts = [ped.seed.positions[0] for ped in entering]
        for ped, start, module_id in zip(entering, starts, point_in_modules(cfg.scene, starts)):
            ped.state = "active"
            ped.module_id = module_id
            ped.positions.append(start.copy())
            ped.velocities.append(np.zeros(2))
            ped.modules.append(module_id)
            ped.reset_flags.append(False)

        active = self._active()
        if not active:
            self.step_index += 1
            return

        snap = _Snapshot(index={p.ped_id: i for i, p in enumerate(active)},
                         pos=np.array([p.positions[-1] for p in active]),
                         vel=np.array([p.velocities[-1] for p in active]))
        moved: list[_PedRuntime] = []
        for ped in active:
            ped._reset_now = False
            ped._velocity = None
            local = t - ped.entry
            ped._predicted = local >= w - 1
            if ped._predicted:
                moved.append(ped)
            else:
                ped._proposal = ped.seed.positions[local + 1].copy()
        self._propose(active, moved, snap, t)

        # Commits touch only their own pedestrian, so the exit and module
        # tests of every proposal can run before the first commit.
        terminal = [p for p in moved if cfg.scene.successor[p.module_id] is None]
        exits = {p.ped_id for p, i in zip(terminal, self._crossings(terminal, self._exits))
                 if i >= 0}
        found = point_in_modules(cfg.scene, [p._proposal for p in active])
        for ped, module_id in zip(active, found):
            self._commit(ped, t, ped.ped_id in exits, module_id)
        self._flush_rewrites()

        self.step_index += 1

    def _propose(self, active: list, moved: list, snap: _Snapshot, t: int) -> None:
        """Set _proposal for every pedestrian past its seeded prefix (moved).

        The TCN reads each active pedestrian's feature window, predicts one
        velocity per moved pedestrian, and resets the history of any whose
        predicted move crosses a wall.
        """
        cfg = self.config
        self._snapshots.append((t, snap))
        for ped, feats in zip(active, self._step_features(active, snap)):
            ped.window.append(feats.copy())   # a view would keep the whole batch alive
        if not moved:
            return
        rows = np.stack([row for ped in moved for row in ped.window])
        v_hat = np.asarray(self.predictor.predict(rows.reshape(len(moved), -1, rows.shape[1])),
                           dtype=float)
        if v_hat.shape != (len(moved), 2):
            raise ValueError(f"predictor returned shape {v_hat.shape}")
        bad = ~np.all(np.isfinite(v_hat), axis=1)
        if np.any(bad):
            ped = moved[int(np.argmax(bad))]
            raise ValueError(f"predictor returned a non-finite velocity for pedestrian "
                             f"{ped.ped_id!r} at step {t}")
        for ped, v in zip(moved, v_hat):
            ped._proposal = ped.positions[-1] + v * cfg.dt
        for ped, idx in zip(moved, self._crossings(moved, self._walls)):
            if idx >= 0:
                self._reset(ped, self._walls[ped.module_id][idx], t)

    def _crossings(self, peds: list, segments: dict) -> np.ndarray:
        """Index of the first of segments[module] that each pedestrian's step
        (positions[-1] to _proposal) crosses, or -1; one call per module."""
        out = np.full(len(peds), -1)
        groups: dict = {}
        for i, ped in enumerate(peds):
            groups.setdefault(ped.module_id, []).append(i)
        for module_id, idx in groups.items():
            out[idx] = first_wall_crossings([peds[i].positions[-1] for i in idx],
                                            [peds[i]._proposal for i in idx],
                                            segments[module_id])
        return out

    def _step_features(self, active: list, snap: _Snapshot) -> np.ndarray:
        """Feature rows of the active pedestrians against the snapshot, (N, D)."""
        return extract_batch(snap.pos, snap.vel, [p.module_id for p in active],
                             self.config.scene, self.config.params)

    def run(self) -> SimulationResult:
        while True:
            active = self._active()
            if not active and not self._has_pending():
                break
            if self.step_index >= self.config.max_steps:
                for ped in active:
                    ped.truncated = True
                break
            self.step()
        trajectories = []
        for pid in self._order:
            ped = self._peds[pid]
            if not ped.positions:
                continue
            trajectories.append(SimulatedTrajectory(
                ped_id=pid, entry_step=ped.entry, dt=self.config.dt,
                positions=np.asarray(ped.positions, dtype=float),
                module_ids=tuple(ped.modules),
                reset_flags=np.asarray(ped.reset_flags, dtype=bool),
                exited=ped.exited, truncated=ped.truncated,
            ))
        truncated = any(t.truncated for t in trajectories) or self._has_pending()
        return SimulationResult(scene=self.config.scene, dt=self.config.dt,
                                trajectories=tuple(trajectories), truncated=truncated)

    # -- helpers ----------------------------------------------------------

    def _commit(self, ped: _PedRuntime, t: int, exits: bool, found: Optional[str]) -> None:
        """Commit the proposal; exits (a predicted step across a terminal exit)
        and found (the module containing the proposal) come from step()."""
        cfg = self.config
        pos = ped.positions[-1]
        nxt = np.asarray(ped._proposal, dtype=float)
        vel = ped._velocity

        if exits:
            self._append(ped, nxt, pos, ped.module_id, vel)
            ped.state = "done"
            ped.exited = True
            return
        if found is None and ped._predicted:
            snapped = snap_to_module(cfg.scene, nxt)
            if snapped is not None:
                nxt, found = snapped
            else:
                pos, nxt, found = self._stranded(ped, nxt, t)
            vel = None
        new_module = found if found is not None else ped.module_id
        self._append(ped, nxt, pos, new_module, vel)
        ped.module_id = new_module

    def _stranded(self, ped: _PedRuntime, nxt: np.ndarray, t: int):
        """(pos, next, module) for a move out of every module with no snap.

        The TCN resets against the wall crossed (or the nearest one), or
        holds when it has reset already this step.
        """
        if ped._reset_now:
            return self._hold(ped)
        pos = ped.positions[-1]
        walls = self._walls[ped.module_id]
        idx = first_wall_crossing(pos, nxt, walls)
        if idx is None:
            idx = self._nearest_wall(pos, walls)
        self._reset(ped, walls[idx], t)
        nxt = np.asarray(ped._proposal, dtype=float)
        return ped.positions[-1], nxt, point_in_module(self.config.scene, nxt)

    def _hold(self, ped: _PedRuntime):
        """(pos, next, module) of staying put.

        A hold keeps the current module: on a shared border point_in_module
        would name the earlier module instead.
        """
        pos = ped.positions[-1]
        return pos, pos.copy(), ped.module_id

    def _append(self, ped: _PedRuntime, nxt: np.ndarray, pos: np.ndarray, module_id: str,
                vel: Optional[np.ndarray]) -> None:
        ped.positions.append(nxt.copy())
        ped.velocities.append((nxt - pos) / self.config.dt if vel is None else vel)
        ped.modules.append(module_id)
        ped.reset_flags.append(ped._reset_now)

    def _nearest_wall(self, p: np.ndarray, walls: np.ndarray) -> int:
        dists = [point_segment_distance(p, wall) for wall in walls]
        return int(np.argmin(dists))

    def _clear_point(self, p: np.ndarray, wall: np.ndarray, toward: np.ndarray) -> np.ndarray:
        c, dist = closest_point_on_segment(p, wall[0], wall[1])
        if dist >= WALL_CLEARANCE:
            return p.copy()
        if dist > 1e-12:
            n = (p - c) / dist
        else:
            d = wall[1] - wall[0]
            n = np.array([-d[1], d[0]]) / np.hypot(*d)
            if float(n @ (toward - c)) < 0.0:
                n = -n
        return c + n * WALL_CLEARANCE

    def _path_clear(self, prev: np.ndarray, points: list, walls: np.ndarray,
                    violated: np.ndarray) -> bool:
        chain = np.array([prev] + points)
        a, b = chain[:-1], chain[1:]
        moves = np.hypot(*(b - a).T) > 1e-12
        gaps = closest_points_on_segments(b[:, None], violated[:1], violated[1:])[1]
        return not (np.any(first_wall_crossings(a[moves], b[moves], walls) >= 0)
                    or np.any(gaps < WALL_CLEARANCE - 1e-9)
                    or None in point_in_modules(self.config.scene, b))

    def _reset(self, ped: _PedRuntime, wall: np.ndarray, t: int) -> None:
        """Replace recent simulated history with a guided wall-clear path."""
        cfg = self.config
        w = cfg.params.window
        dt = cfg.dt
        ped._reset_now = True
        pos_t = ped.positions[-1]
        module = cfg.scene.module(ped.module_id)
        exit_mid = module.exit.mean(axis=0)

        if module.kind == "bottleneck":
            vec = exit_mid - pos_t
            nrm = float(np.hypot(*vec))
            if nrm < 1e-9:
                ped._proposal = pos_t.copy()
                return
            direction = vec / nrm
        else:
            d = wall[1] - wall[0]
            d = d / float(np.hypot(*d))
            direction = d if float(d @ (exit_mid - pos_t)) >= 0.0 else -d

        p_hat = self._clear_point(pos_t, wall, exit_mid)
        walls_all = self._walls[ped.module_id]
        first_predicted = ped.entry + w
        r0 = max(t - w + 1, first_predicted)
        steps = list(range(r0, t + 1))

        if not steps:
            # first predicted step: the whole window is the seeded prefix,
            # which is never rewritten; just sidestep clear of the wall
            if (np.hypot(*(p_hat - pos_t)) < 1e-12
                    or first_wall_crossing(pos_t, p_hat, walls_all) is None):
                ped._proposal = p_hat
            else:
                ped._proposal = pos_t.copy()
            return

        m = len(steps)
        speeds = [float(np.hypot(*ped.velocities[s - ped.entry])) for s in steps]
        speed = max(float(np.mean(speeds)), MIN_GUIDED_SPEED)
        prev = ped.positions[r0 - 1 - ped.entry]

        guided = [p_hat - direction * speed * dt * (m - 1 - j) for j in range(m)]
        if self._path_clear(prev, guided, walls_all, wall):
            step_vel = direction * speed
        else:
            guided = [p_hat.copy() for _ in range(m)]
            if self._path_clear(prev, guided, walls_all, wall):
                speed = 0.0
                step_vel = np.zeros(2)
            else:
                ped._proposal = pos_t.copy()
                return

        for j, s in enumerate(steps):
            i = s - ped.entry
            ped.positions[i] = guided[j].copy()
            ped.velocities[i] = ((guided[0] - prev) / dt if j == 0 else step_vel.copy())
            ped.reset_flags[i] = True
        self._rewrite_window(ped, steps, t)

        nxt = p_hat + direction * speed * dt
        if speed > 0.0 and first_wall_crossing(p_hat, nxt, walls_all) is not None:
            nxt = p_hat.copy()
        ped._proposal = nxt

    def _rewrite_window(self, ped: _PedRuntime, steps: list, t: int) -> None:
        """Queue the rows of the rewritten steps (window[-1] is step t) for
        `_flush_rewrites`, each as its recorded snapshot with the subject's
        rewritten state and current module."""
        by_step = dict(self._snapshots)
        for s in steps:
            snap = by_step[s]
            i = snap.index[ped.ped_id]
            pos, vel = snap.pos.copy(), snap.vel.copy()
            pos[i] = ped.positions[s - ped.entry]
            vel[i] = ped.velocities[s - ped.entry]
            module_ids = [None] * len(pos)
            module_ids[i] = ped.module_id
            self._rewrites.append((ped, s - t - 1, pos, vel, module_ids))

    def _flush_rewrites(self) -> None:
        """Extract every queued rewrite row in one call, one group per row.

        Windows are read only in _propose, so a flush after the step's
        commits gives the rows an immediate extraction would."""
        if not self._rewrites:
            return
        _, _, pos, vel, module_ids = zip(*self._rewrites)
        rows = extract_batch(np.concatenate(pos), np.concatenate(vel),
                             [m for ids in module_ids for m in ids], self.config.scene,
                             self.config.params,
                             groups=np.repeat(np.arange(len(pos)), [len(p) for p in pos]))
        for (ped, k, *_), row in zip(self._rewrites, rows):
            ped.window[k] = row.copy()
        self._rewrites.clear()


def run_simulation(config: SimulationConfig, predictor) -> SimulationResult:
    """Step until every pedestrian has exited or max_steps is reached."""
    return Simulator(config, predictor).run()


def seeds_from_run(trajectories, window: int) -> list[PedestrianSeed]:
    """Seed configs from experimental tracks: entry time plus first w positions.

    Steps count from the run's earliest track, the tracks shorter than the
    window included; those tracks are skipped.
    """
    origin = min((t.t0 for t in trajectories), default=0)
    return [PedestrianSeed(ped_id=t.ped_id, entry_step=t.t0 - origin,
                           positions=t.positions[:window].copy())
            for t in trajectories if len(t) >= window]

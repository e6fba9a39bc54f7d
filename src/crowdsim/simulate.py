"""Closed-loop crowd simulation driven by a next-step velocity model.

Each step is synchronous: features for every active pedestrian are extracted
against the frozen step-t snapshot, proposals p[t+1] = p[t] + v_hat*dt are
computed from that snapshot, and all commits happen together at step end, so
processing order cannot influence the outcome.

Pedestrians enter at their configured entry step and replay their seeded
window positions verbatim; prediction starts once the window is full.
Pedestrians crossing the exit segment of a terminal module are deactivated;
crossing an internal junction re-binds them to the module that contains the
new position, with a small snap for numerical overshoot at shared borders.

`Simulator` owns this run lifecycle for every model.  The model surface is
two methods: `_propose` (the next positions of the pedestrians past their
seeded prefix) and `_blocked` (where a blocked move goes instead).  The
one wall guard, right after `_propose`, tests every moved pedestrian's
move against its module's active walls and hands each crossing move to
`_blocked` with the wall crossed; a move that leaves every module and
snaps nowhere goes to `_blocked` with no wall.  The social-force baseline
overrides both methods and holds every blocked move.

The TCN's `_blocked` resets the history: the most recent simulated steps
(never the seeded prefix) are replaced by a guided constant-speed path
0.05 m clear of the wall (with no wall, its module's nearest), aimed along
it toward the exit (or straight at the exit midpoint in bottleneck
modules), and those steps' window features are re-extracted against the
recorded neighbor snapshots, all of a step's rewrites in one call at step
end.  If the guided path would cross a wall, or the pedestrian has reset
already this step, it holds position.

Each stage of a step is one kernel call for the whole crowd, and a stage
with no rows calls none: the wall guard and the exit test are one
`first_wall_crossings` call each, against `Scene.wall_table` and a
per-module exit table with one row per pedestrian's module.  Feature
windows live in one (P, w, D) ring over every pedestrian: a step writes
its rows at t % w with one scatter, the predictor's input is one gather
over steps t-w+1 .. t, and window rewrites are written into the ring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .features import ExtractionParams, extract_batch
from .geometry import (
    Scene,
    closest_points_on_segments,
    first_wall_crossings,
    point_in_modules,
)

WALL_CLEARANCE = 0.05
MIN_GUIDED_SPEED = 0.1
JUNCTION_SNAP = 0.02


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
        rows, dt = [], float(self.dt)
        for traj in sorted(self.trajectories, key=lambda t: t.ped_id):
            steps = range(traj.entry_step, traj.entry_step + len(traj.positions))
            for step, (x, y), module_id, reset in zip(steps, traj.positions.tolist(),
                                                      traj.module_ids, traj.reset_flags.tolist()):
                rows.append([run_name, traj.ped_id, step, step * dt, x, y, module_id,
                             int(reset)])
        return rows


@dataclass
class _PedRuntime:
    """Pending until its first position is recorded, active until it exits."""

    seed: PedestrianSeed
    slot: int                               # index in Simulator._peds and row of its window ring
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

    @property
    def module_id(self) -> str:
        return self.modules[-1]


@dataclass(frozen=True)
class _Snapshot:
    """Positions and velocities of the active pedestrians at one step, in id order."""

    index: dict[str, int]
    pos: np.ndarray             # (N, 2)
    vel: np.ndarray             # (N, 2)


def snap_to_module(scene: Scene, p: np.ndarray, tolerance: float = JUNCTION_SNAP):
    """Snap a point just outside all modules onto the nearest boundary.

    Returns (snapped point, module id), or None when the point is farther
    than ``tolerance`` from every module.
    """
    start, end, first = scene.edges
    c, d = closest_points_on_segments(p, start, end)
    best = int(np.argmin(d))            # the first edge, in module order, at the minimum
    if not d[best] <= tolerance:
        return None
    return c[best], scene.modules[int(np.searchsorted(first, best, side="right")) - 1].id


class Simulator:
    """Synchronous stepping engine; construct once per run and call run()."""

    def __init__(self, config: SimulationConfig, predictor):
        self.config = config
        self.predictor = predictor
        self.step_index = 0
        params = config.params
        seeds = sorted(config.pedestrians, key=lambda s: s.ped_id)
        self._peds = [_PedRuntime(seed=s, slot=i) for i, s in enumerate(seeds)]
        # feature row of step s of the pedestrian in slot i at ring[i, s % w]
        self._ring = np.zeros((len(self._peds), params.window, params.feature_dim))
        self._snapshots: deque = deque(maxlen=params.window)
        self._rewrites: list = []           # window rows re-extracted at step end
        scene = config.scene
        self._rows, table, valid = scene.wall_table
        self._wall_table = table, valid
        self._walls = {mid: table[row, valid[row]] for mid, row in self._rows.items()}
        self._exit_table = (np.stack([m.exit for m in scene.modules])[:, None],
                            np.ones((len(scene.modules), 1), dtype=bool))

    # -- queries ----------------------------------------------------------

    def _active(self) -> list[_PedRuntime]:
        return [p for p in self._peds if p.positions and not p.exited]

    def _has_pending(self) -> bool:
        return any(not p.positions for p in self._peds)

    # -- stepping ---------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        t = self.step_index
        w = cfg.params.window

        entering = [p for p in self._peds if not p.positions and p.entry == t]
        if entering:
            starts = [ped.seed.positions[0] for ped in entering]
            for ped, start, module_id in zip(entering, starts,
                                             point_in_modules(cfg.scene, starts)):
                self._append(ped, start, module_id, np.zeros(2))

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
        # the wall guard; the exit and module tests below read its results
        for ped, idx in zip(moved, self._crossings(moved, *self._wall_table)):
            if idx >= 0:
                ped._proposal = self._blocked(ped, self._walls[ped.module_id][idx], t)[0]
                ped._velocity = None

        # Commits touch only their own pedestrian, so the exit and module
        # tests of every proposal can run before the first commit.
        terminal = [p for p in moved if cfg.scene.successor[p.module_id] is None]
        exits = {p.ped_id for p, i in zip(terminal, self._crossings(terminal, *self._exit_table))
                 if i >= 0}
        found = point_in_modules(cfg.scene, [p._proposal for p in active])
        for ped, module_id in zip(active, found):
            self._commit(ped, t, ped.ped_id in exits, module_id)
        self._flush_rewrites()

        self.step_index += 1

    def _propose(self, active: list, moved: list, snap: _Snapshot, t: int) -> None:
        """Set _proposal for every pedestrian past its seeded prefix (moved),
        and _velocity where the model has one to record with it.

        The TCN reads each active pedestrian's feature window and predicts
        one velocity per moved pedestrian.
        """
        cfg = self.config
        self._snapshots.append((t, snap))
        x = self._windows(active, moved, snap, t)
        if not moved:
            return
        v_hat = np.asarray(self.predictor.predict(x), dtype=float)
        if v_hat.shape != (len(moved), 2):
            raise ValueError(f"predictor returned shape {v_hat.shape}")
        bad = ~np.all(np.isfinite(v_hat), axis=1)
        if np.any(bad):
            ped = moved[int(np.argmax(bad))]
            raise ValueError(f"predictor returned a non-finite velocity for pedestrian "
                             f"{ped.ped_id!r} at step {t}")
        for ped, v in zip(moved, v_hat):
            ped._proposal = ped.positions[-1] + v * cfg.dt

    def _blocked(self, ped: _PedRuntime, wall: Optional[np.ndarray], t: int):
        """(next, module) for a move that crosses wall, or (wall None) leaves
        every module and snaps nowhere.  A crossing move's next is tested as
        its proposal, so only a stranded move's module is read (None: the
        one containing next, else the current one).  The TCN resets against
        the wall (with no wall, its module's nearest), or holds if it has
        reset already this step.
        """
        if ped._reset_now:
            return self._hold(ped)
        if wall is None:
            walls = self._walls[ped.module_id]
            _, gaps = closest_points_on_segments(ped.positions[-1], walls[:, 0], walls[:, 1])
            wall = walls[int(np.argmin(gaps))]
        self._reset(ped, wall, t)
        return np.asarray(ped._proposal, dtype=float), None

    def _windows(self, active: list, moved: list, snap: _Snapshot, t: int) -> np.ndarray:
        """Write the step's feature rows into the ring with one scatter and
        gather the moved pedestrians' windows (n, w, D) with one gather:
        steps t-w+1 .. t, oldest first."""
        w = self.config.params.window
        self._ring[[p.slot for p in active], t % w] = self._step_features(active, snap)
        return self._ring[np.array([p.slot for p in moved], dtype=int)[:, None],
                          np.arange(t + 1, t + w + 1) % w]

    def _crossings(self, peds: list, table: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Index of the first segment that each pedestrian's step
        (positions[-1] to _proposal) crosses among its module's row of
        table (rows in `Scene.wall_table` order), or -1: one kernel call,
        none for no pedestrians."""
        if not peds:
            return np.full(0, -1)
        return first_wall_crossings([p.positions[-1] for p in peds], [p._proposal for p in peds],
                                    table, valid, [self._rows[p.module_id] for p in peds])

    def _module_crossings(self, module_id: str, p_from, p_to) -> np.ndarray:
        """`first_wall_crossings` of moves p_from -> p_to against one
        module's active walls."""
        p_from = np.reshape(p_from, (-1, 2))
        return first_wall_crossings(p_from, p_to, *self._wall_table,
                                    np.full(len(p_from), self._rows[module_id]))

    def _step_features(self, active: list, snap: _Snapshot) -> np.ndarray:
        """Feature rows of the active pedestrians against the snapshot, (N, D)."""
        return extract_batch(snap.pos, snap.vel, [self._rows[p.module_id] for p in active],
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
        for ped in self._peds:
            if not ped.positions:
                continue
            trajectories.append(SimulatedTrajectory(
                ped_id=ped.ped_id, entry_step=ped.entry, dt=self.config.dt,
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
        nxt = np.asarray(ped._proposal, dtype=float)
        vel = ped._velocity

        if exits:
            self._append(ped, nxt, ped.module_id, vel)
            ped.exited = True
            return
        if found is None and ped._predicted:
            snapped = snap_to_module(self.config.scene, nxt)
            nxt, found = snapped if snapped is not None else self._blocked(ped, None, t)
            if found is None:
                found = point_in_modules(self.config.scene, nxt)[0]
            vel = None
        self._append(ped, nxt, found if found is not None else ped.module_id, vel)

    def _hold(self, ped: _PedRuntime):
        """(next, module) of staying put, in the current module: on a shared
        border point_in_modules would name the earlier module instead."""
        return ped.positions[-1].copy(), ped.module_id

    def _append(self, ped: _PedRuntime, nxt: np.ndarray, module_id: str,
                vel: Optional[np.ndarray]) -> None:
        """Record nxt; vel None records the displacement from the last position over dt."""
        if vel is None:
            vel = (nxt - ped.positions[-1]) / self.config.dt
        ped.positions.append(nxt.copy())
        ped.velocities.append(vel)
        ped.modules.append(module_id)
        ped.reset_flags.append(ped._reset_now)

    def _clear_point(self, p: np.ndarray, wall: np.ndarray, toward: np.ndarray) -> np.ndarray:
        (c,), (dist,) = closest_points_on_segments(p, wall[:1], wall[1:])
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

    def _path_clear(self, prev: np.ndarray, points: list, module_id: str,
                    violated: np.ndarray) -> bool:
        chain = np.array([prev] + points)
        a, b = chain[:-1], chain[1:]
        moves = np.hypot(*(b - a).T) > 1e-12
        gaps = closest_points_on_segments(b[:, None], violated[:1], violated[1:])[1]
        return not (np.any(self._module_crossings(module_id, a[moves], b[moves]) >= 0)
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
        first_predicted = ped.entry + w
        r0 = max(t - w + 1, first_predicted)
        steps = list(range(r0, t + 1))

        if not steps:
            # first predicted step: the whole window is the seeded prefix,
            # which is never rewritten; just sidestep clear of the wall
            if (np.hypot(*(p_hat - pos_t)) < 1e-12
                    or self._module_crossings(ped.module_id, pos_t, p_hat)[0] < 0):
                ped._proposal = p_hat
            else:
                ped._proposal = pos_t.copy()
            return

        m = len(steps)
        speeds = [float(np.hypot(*ped.velocities[s - ped.entry])) for s in steps]
        speed = max(float(np.mean(speeds)), MIN_GUIDED_SPEED)
        prev = ped.positions[r0 - 1 - ped.entry]

        # the guided path at speed, else standing at p_hat; zeros, not
        # direction * 0.0, keep the standing velocities and offsets +0.0
        for speed, step_vel in ((speed, direction * speed), (0.0, np.zeros(2))):
            guided = [p_hat - step_vel * dt * (m - 1 - j) for j in range(m)]
            if self._path_clear(prev, guided, ped.module_id, wall):
                break
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
        if speed > 0.0 and self._module_crossings(ped.module_id, p_hat, nxt)[0] >= 0:
            nxt = p_hat.copy()
        ped._proposal = nxt

    def _rewrite_window(self, ped: _PedRuntime, steps: list, t: int) -> None:
        """Queue the rows of the rewritten steps for `_flush_rewrites`, each
        as its recorded snapshot with the subject's rewritten state and
        current module."""
        by_step = dict(self._snapshots)
        for s in steps:
            snap = by_step[s]
            i = snap.index[ped.ped_id]
            pos, vel = snap.pos.copy(), snap.vel.copy()
            pos[i] = ped.positions[s - ped.entry]
            vel[i] = ped.velocities[s - ped.entry]
            rows = np.full(len(pos), -1)
            rows[i] = self._rows[ped.module_id]
            self._rewrites.append((ped, s, pos, vel, rows))

    def _flush_rewrites(self) -> None:
        """Extract every queued rewrite row in one call, one group per row,
        and write them into the ring with one scatter.

        Windows are read only in _propose, so a flush after the step's
        commits gives the rows an immediate extraction would."""
        if not self._rewrites:
            return
        peds, steps, pos, vel, rows = zip(*self._rewrites)
        self._ring[[p.slot for p in peds], np.array(steps) % self.config.params.window] = \
            extract_batch(np.concatenate(pos), np.concatenate(vel), np.concatenate(rows),
                          self.config.scene, self.config.params,
                          groups=np.repeat(np.arange(len(pos)), [len(p) for p in pos]))
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

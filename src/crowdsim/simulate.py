"""Closed-loop crowd simulation driven by a next-step velocity model.

Each step is synchronous: features for every active pedestrian are extracted
against the frozen step-t states, proposals p[t+1] = p[t] + v_hat*dt are
computed from those states, and all commits happen together at step end, so
processing order cannot influence the outcome.

Pedestrians enter at their configured entry step and replay their seeded
window positions verbatim; prediction starts once the window is full.
Pedestrians crossing the exit segment of a terminal module are deactivated;
crossing an internal junction re-binds them to the module that contains the
new position, with a small snap for numerical overshoot at shared borders.

`Simulator` owns this run lifecycle for every model.  Pedestrians live in
slots, one per pedestrian in id order, and their state in per-slot arrays:
positions and velocities (P, T+1, 2) and the module, as its
`Scene.wall_table` row, and reset flag (P, T+1) at each global step, plus
each slot's entry step, recorded length and exited flag.  A slot is
pending while its length is 0, active until it exits, and truncated if
still active when the run stops; during step t, reset flag t + 1 marks
who has reset already.  T starts small and doubles as the run goes on.
Module ids become strings only in `SimulationResult`, whose records
are `metrics.Track`s, steps[0] being the entry step.

A step works on masks and index arrays over the slots, with no Python
per pedestrian outside the model: entrants are one scatter, seeded
proposals one gather from the (P, w, 2) seed array, and the commit one
scatter.  The model surface is two methods on arrays: `_propose` (the
next positions, and velocities if the model has them, of the moved
slots, those past their seeded prefix) and `_blocked` (where the step's
blocked moves go instead).  The one wall guard, right after `_propose`,
tests every moved slot's move against its module's active walls and
hands the crossing moves to `_blocked` together, with their walls.  A
proposal outside every module snaps onto the nearest boundary edge
within JUNCTION_SNAP (one `snap_to_modules` call per step); the moves
that snap nowhere go to `_blocked` together with no walls.  The
social-force baseline overrides both methods and holds every blocked
move.

The TCN's `_blocked` resets the history, one slot at a time: the most
recent simulated steps (never the seeded prefix) are replaced by a guided
constant-speed path 0.05 m clear of the wall (with no wall, its module's
nearest), aimed along it toward the exit (or straight at the exit
midpoint in bottleneck modules), and those steps' window features are
re-extracted against the neighbours' states as recorded at each step, all
of a step's rewrites in one call at step end.  If the guided path would
cross a wall, the pedestrian has reset already this step, or a stranded
move's module has no active walls, it holds position.

Each stage of a step is one kernel call for the whole crowd, and a stage
with no rows calls none: the wall guard and the exit test are one
`first_wall_crossings` call each, against `Scene.wall_table` and a
per-module exit table with one row per pedestrian's module, and
containment is one `containing_rows` call.  Feature windows live in one
(P, w, E) ring of encoded rows over every pedestrian: a step encodes its
rows with one `predictor.encode` call (block 0's first-layer products, so
each row is multiplied once, not once per window that reads it) and
writes them at t % w with one scatter, the predictor's input is one
time-major gather over steps t-w+1 .. t, (w, n, E), passed as its
(n, w, E) transposed view so the predictor's first block takes it
without a copy, and a step's window rewrites are encoded in one call and
written into the ring.  The TCN's step
states live in a ring of the same layout: (P, w, 2, 2) positions and
velocities as recorded at step s, at [slot, s % w], with a (P, w) mask of
who was active then.  A TCN step writes both with one scatter, and the
rewrite rows of a step are one gather of the recorded states of their
steps, the subject's rewritten state scattered over its own entry;
rewrites never write back into the state ring.  Social force, which
reads neither ring, makes neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .features import ExtractionParams, extract_batch
from .geometry import (
    Scene,
    closest_points_on_segments,
    containing_rows,
    first_wall_crossings,
)
from .metrics import Track

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
        outside = iter(containing_rows(
            self.scene, [p for seed in self.pedestrians for p in seed.positions]) < 0)
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
            # zip draws one test per seed position, then stops
            for p, out in zip(seed.positions, outside):
                if out:
                    raise ValueError(
                        f"pedestrian {seed.ped_id}: seed position {tuple(p.tolist())} "
                        "lies outside every module"
                    )


@dataclass(frozen=True)
class SimulatedTrajectory(Track):
    """A simulated pedestrian's record: its Track, steps[0] being its entry
    step, and per step its module and reset flag."""

    module_ids: tuple[str, ...]
    reset_flags: np.ndarray     # (n,) bool
    exited: bool
    truncated: bool


TRAJECTORY_HEADER = ["run", "ped_id", "step", "time_s", "x_m", "y_m",
                     "module_id", "reset_flag"]


@dataclass(frozen=True)
class SimulationResult:
    scene: Scene
    dt: float
    trajectories: tuple[SimulatedTrajectory, ...]
    truncated: bool

    def to_rows(self, run_name: str) -> list[list]:
        """Rows under TRAJECTORY_HEADER, pedestrians in id order."""
        rows, dt = [], float(self.dt)
        for traj in sorted(self.trajectories, key=lambda t: t.ped_id):
            for step, (x, y), module_id, reset in zip(traj.steps.tolist(),
                                                      traj.positions.tolist(),
                                                      traj.module_ids, traj.reset_flags.tolist()):
                rows.append([run_name, traj.ped_id, step, step * dt, x, y, module_id,
                             int(reset)])
        return rows


def snap_to_modules(scene: Scene, points):
    """Snap points just outside all modules onto the nearest boundary, with
    one `closest_points_on_segments` call over every point and
    `Scene.edges`.

    Returns the snapped points (k, 2) and each one's module, as its row in
    `Scene.wall_table`: the module of the first edge, in module order, at
    the minimum distance, or -1 (the point is not snapped) where that
    distance exceeds JUNCTION_SNAP.
    """
    start, end, first = scene.edges
    c, d = closest_points_on_segments(np.reshape(points, (-1, 1, 2)), start, end)
    best = np.argmin(d, axis=1)         # the first edge, in module order, at the minimum
    k = np.arange(len(best))
    rows = np.searchsorted(first, best, side="right") - 1
    return c[k, best], np.where(d[k, best] <= JUNCTION_SNAP, rows, -1)


class Simulator:
    """Synchronous stepping engine; construct once per run and call run()."""

    def __init__(self, config: SimulationConfig, predictor):
        self.config = config
        self.predictor = predictor
        self.step_index = 0
        params = config.params
        seeds = sorted(config.pedestrians, key=lambda s: s.ped_id)
        n = len(seeds)
        # per slot, in id order: the seed, and the run record (pending while
        # its length is 0, active until it exits)
        self._ids = [s.ped_id for s in seeds]
        self._seeds = np.array([s.positions for s in seeds]).reshape(n, params.window, 2)
        self._entry = np.array([s.entry_step for s in seeds], dtype=int)
        self._length = np.zeros(n, dtype=int)
        self._exited = np.zeros(n, dtype=bool)
        # state at global step s at [slot, s]; columns grow by doubling
        self._pos = np.zeros((n, 16, 2))
        self._vel = np.zeros((n, 16, 2))
        self._row = np.zeros((n, 16), dtype=int)        # Scene.wall_table row of the module
        self._flag = np.zeros((n, 16), dtype=bool)      # reset flags; step t's resets set t + 1
        # encoded feature row of step s of the pedestrian in slot i at
        # ring[i, s % w], and the position and velocity recorded then, and
        # whether active; made by the first _store, on the TCN path only
        self._ring = self._states = self._recorded = None
        self._rewrites: list = []           # (slot, s), extracted at step end
        scene = config.scene
        self._wall_table = scene.wall_table     # (table, valid)
        self._exit_table = (np.stack([m.exit for m in scene.modules])[:, None],
                            np.ones((len(scene.modules), 1), dtype=bool))
        self._terminal = np.array([scene.successor[m.id] is None for m in scene.modules])

    # -- queries ----------------------------------------------------------

    def _active(self) -> np.ndarray:
        return np.flatnonzero((self._length > 0) & ~self._exited)

    def _has_pending(self) -> bool:
        return bool(np.any(self._length == 0))

    def _reserve(self, columns: int) -> None:
        """Grow the per-step arrays, doubling, to hold steps 0 .. columns - 1."""
        have = self._pos.shape[1]
        if columns <= have:
            return
        size = max(columns, 2 * have)
        for name in ("_pos", "_vel", "_row", "_flag"):
            old = getattr(self, name)
            new = np.zeros((old.shape[0], size) + old.shape[2:], dtype=old.dtype)
            new[:, :have] = old
            setattr(self, name, new)

    # -- stepping ---------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        t = self.step_index
        w = cfg.params.window
        self._reserve(t + 2)

        # entrants record their first seed position with zero velocity (the
        # arrays start at zero)
        entering = np.flatnonzero((self._length == 0) & (self._entry == t))
        if entering.size:
            starts = self._seeds[entering, 0]
            self._pos[entering, t] = starts
            self._row[entering, t] = containing_rows(cfg.scene, starts)
            self._length[entering] = 1

        active = self._active()
        if not active.size:
            self.step_index += 1
            return

        pos, vel, rows = self._pos[active, t], self._vel[active, t], self._row[active, t]
        local = t - self._entry[active]
        moved = local >= w - 1
        nxt = np.empty_like(pos)
        nxt[~moved] = self._seeds[active[~moved], local[~moved] + 1]
        nxt[moved], model_vel = self._propose(active, moved, pos, vel, t)
        kept = moved.copy()             # proposals that commit as the model made them

        # the wall guard; the exit and module tests below read its results
        mi = np.flatnonzero(moved)
        hit = self._crossings(pos[mi], nxt[mi], *self._wall_table, rows[mi])
        blocked = mi[hit >= 0]
        if blocked.size:
            walls = self._wall_table[0][rows[blocked], hit[hit >= 0]]
            nxt[blocked] = self._blocked(active[blocked], walls, t)[0]
            kept[blocked] = False

        # exits leave from the position of step t as the guard's resets left it
        ti = np.flatnonzero(moved & self._terminal[rows])
        exits = np.zeros_like(moved)
        exits[ti] = self._crossings(self._pos[active[ti], t], nxt[ti], *self._exit_table,
                                    rows[ti]) >= 0
        found = containing_rows(cfg.scene, nxt)
        next_rows = np.where(exits | (found < 0), rows, found)
        lost = np.flatnonzero(moved & ~exits & (found < 0))
        if lost.size:
            kept[lost] = False
            points, snapped = snap_to_modules(cfg.scene, nxt[lost])
            on = snapped >= 0
            nxt[lost[on]] = points[on]
            next_rows[lost[on]] = snapped[on]
            stranded = lost[~on]
            if stranded.size:
                nxt[stranded], held = self._blocked(active[stranded], None, t)
                # a reset's proposal goes to the module containing it, if any
                free = stranded[~held]
                if free.size:
                    found = containing_rows(cfg.scene, nxt[free])
                    next_rows[free] = np.where(found >= 0, found, rows[free])

        # one scatter commits the step; a move records the model's velocity
        # if it has one and the move is as proposed, else its displacement
        recorded = (nxt - self._pos[active, t]) / cfg.dt
        if model_vel is not None:
            recorded[kept] = model_vel[kept[moved]]
        self._pos[active, t + 1] = nxt
        self._vel[active, t + 1] = recorded
        self._row[active, t + 1] = next_rows
        self._length[active] += 1
        self._exited[active[exits]] = True
        self._flush_rewrites()

        self.step_index += 1

    def _propose(self, active: np.ndarray, moved: np.ndarray, pos: np.ndarray,
                 vel: np.ndarray, t: int):
        """(next positions (m, 2), velocities (m, 2) or None) of the moved
        slots active[moved], the pedestrians past their seeded prefix; pos
        and vel (N, 2) are the active slots' states at step t.  A velocity
        is recorded with its position if the position commits as proposed;
        None records every displacement over dt.

        The TCN reads each active pedestrian's feature window and predicts
        one velocity per moved pedestrian.
        """
        cfg = self.config
        x = self._windows(active, moved, pos, vel, t)
        if not moved.any():
            return np.empty((0, 2)), None
        v_hat = np.asarray(self.predictor.predict(x), dtype=float)
        if v_hat.shape != (int(moved.sum()), 2):
            raise ValueError(f"predictor returned shape {v_hat.shape}")
        bad = ~np.all(np.isfinite(v_hat), axis=1)
        if np.any(bad):
            slot = active[moved][int(np.argmax(bad))]
            raise ValueError(f"predictor returned a non-finite velocity for pedestrian "
                             f"{self._ids[slot]!r} at step {t}")
        return pos[moved] + v_hat * cfg.dt, None

    def _blocked(self, slots: np.ndarray, walls: Optional[np.ndarray], t: int):
        """(next positions (b, 2), held (b,)) for the blocked moves of slots:
        moves that cross walls (b, 2, 2), or (walls None) leave every module
        and snap nowhere.  A held move stays put in its module; any other
        next goes to the module containing it (a crossing move's next is
        tested as its proposal).

        The TCN resets each against its wall (with no wall, its module's
        nearest), and holds a pedestrian that has reset already this step
        or is stranded in a module with no active walls.
        """
        table, valid = self._wall_table
        nxt = self._pos[slots, t]
        held = self._flag[slots, t + 1]
        for i, slot in enumerate(slots.tolist()):
            if held[i]:
                continue
            if walls is not None:
                wall = walls[i]
            else:
                row = self._row[slot, t]
                own = table[row, valid[row]]
                if not len(own):
                    held[i] = True
                    continue
                _, gaps = closest_points_on_segments(nxt[i], own[:, 0], own[:, 1])
                wall = own[int(np.argmin(gaps))]
            nxt[i] = self._reset(slot, wall, t)
        return nxt, held

    def _windows(self, active: np.ndarray, moved: np.ndarray, pos: np.ndarray,
                 vel: np.ndarray, t: int) -> np.ndarray:
        """Write the step's encoded feature rows into the ring and its
        states into the state ring with one scatter each, and gather the
        moved pedestrians' windows with one gather: steps t-w+1 .. t, oldest
        first.  The gather is time-major, (w, n, E), and the windows
        (n, w, E) are its transposed view, the layout the predictor's first
        block reads without a copy."""
        w = self.config.params.window
        self._store(active, t % w, self._step_features(active, pos, vel))
        self._recorded[:, t % w] = False
        self._recorded[active, t % w] = True
        self._states[active, t % w] = np.stack((pos, vel), axis=1)
        cols = np.arange(t + 1, t + w + 1) % w
        return self._ring[active[moved][None, :], cols[:, None]].transpose(1, 0, 2)

    def _store(self, slots, cols, rows: np.ndarray) -> None:
        """Scatter the predictor's encoding of feature rows (k, D), one
        `encode` call, into the ring at [slots, cols]; the first call makes
        the ring, at the encoding's width, and the state ring."""
        encoded = self.predictor.encode(rows)
        if self._ring is None:
            shape = (len(self._ids), self.config.params.window)
            self._ring = np.zeros(shape + encoded.shape[1:])
            self._states, self._recorded = np.zeros(shape + (2, 2)), np.zeros(shape, dtype=bool)
        self._ring[slots, cols] = encoded

    def _crossings(self, p_from: np.ndarray, p_to: np.ndarray, table: np.ndarray,
                   valid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Index of the first segment that each move p_from -> p_to crosses
        among its row of table (rows in `Scene.wall_table` order), or -1:
        one kernel call, none for no moves."""
        if not len(rows):
            return np.full(0, -1)
        return first_wall_crossings(p_from, p_to, table, valid, rows)

    def _module_crossings(self, row: int, p_from, p_to) -> np.ndarray:
        """`first_wall_crossings` of moves p_from -> p_to against the active
        walls of one module, by its `Scene.wall_table` row."""
        p_from = np.reshape(p_from, (-1, 2))
        return first_wall_crossings(p_from, p_to, *self._wall_table,
                                    np.full(len(p_from), row))

    def _step_features(self, active: np.ndarray, pos: np.ndarray,
                       vel: np.ndarray) -> np.ndarray:
        """Feature rows of the active slots at states pos, vel, (N, D)."""
        return extract_batch(pos, vel, self._row[active, self.step_index],
                             self.config.scene, self.config.params)

    def run(self) -> SimulationResult:
        while self.step_index < self.config.max_steps and (
                self._active().size or self._has_pending()):
            self.step()
        truncated = (self._length > 0) & ~self._exited       # active when the run stopped
        ids = [m.id for m in self.config.scene.modules]
        trajectories = []
        for slot in np.flatnonzero(self._length).tolist():
            steps = np.arange(self._entry[slot], self._entry[slot] + self._length[slot])
            trajectories.append(SimulatedTrajectory(
                ped_id=self._ids[slot], steps=steps, dt=self.config.dt,
                positions=self._pos[slot, steps],
                module_ids=tuple(ids[r] for r in self._row[slot, steps].tolist()),
                reset_flags=self._flag[slot, steps],
                exited=bool(self._exited[slot]), truncated=bool(truncated[slot]),
            ))
        return SimulationResult(scene=self.config.scene, dt=self.config.dt,
                                trajectories=tuple(trajectories),
                                truncated=bool(truncated.any()) or self._has_pending())

    # -- the TCN's reset --------------------------------------------------

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

    def _path_clear(self, prev: np.ndarray, points: list, row: int,
                    violated: np.ndarray) -> bool:
        chain = np.array([prev] + points)
        a, b = chain[:-1], chain[1:]
        moves = np.hypot(*(b - a).T) > 1e-12
        gaps = closest_points_on_segments(b[:, None], violated[:1], violated[1:])[1]
        return not (np.any(self._module_crossings(row, a[moves], b[moves]) >= 0)
                    or np.any(gaps < WALL_CLEARANCE - 1e-9)
                    or np.any(containing_rows(self.config.scene, b) < 0))

    def _reset(self, slot: int, wall: np.ndarray, t: int) -> np.ndarray:
        """Replace recent simulated history with a guided wall-clear path;
        returns the next position."""
        cfg = self.config
        w = cfg.params.window
        dt = cfg.dt
        self._flag[slot, t + 1] = True
        pos_t = self._pos[slot, t].copy()
        row = int(self._row[slot, t])
        module = cfg.scene.modules[row]
        exit_mid = module.exit.mean(axis=0)

        if module.kind == "bottleneck":
            vec = exit_mid - pos_t
            nrm = float(np.hypot(*vec))
            if nrm < 1e-9:
                return pos_t
            direction = vec / nrm
        else:
            d = wall[1] - wall[0]
            d = d / float(np.hypot(*d))
            direction = d if float(d @ (exit_mid - pos_t)) >= 0.0 else -d

        p_hat = self._clear_point(pos_t, wall, exit_mid)
        r0 = max(t - w + 1, int(self._entry[slot]) + w)     # the first predicted step
        steps = list(range(r0, t + 1))

        if not steps:
            # first predicted step: the whole window is the seeded prefix,
            # which is never rewritten; just sidestep clear of the wall
            if (np.hypot(*(p_hat - pos_t)) < 1e-12
                    or self._module_crossings(row, pos_t, p_hat)[0] < 0):
                return p_hat
            return pos_t

        m = len(steps)
        speeds = [float(np.hypot(*self._vel[slot, s])) for s in steps]
        speed = max(float(np.mean(speeds)), MIN_GUIDED_SPEED)
        prev = self._pos[slot, r0 - 1].copy()

        # the guided path at speed, else standing at p_hat; zeros, not
        # direction * 0.0, keep the standing velocities and offsets +0.0
        for speed, step_vel in ((speed, direction * speed), (0.0, np.zeros(2))):
            guided = [p_hat - step_vel * dt * (m - 1 - j) for j in range(m)]
            if self._path_clear(prev, guided, row, wall):
                break
        else:
            return pos_t

        self._pos[slot, r0:t + 1] = guided
        self._vel[slot, r0] = (guided[0] - prev) / dt
        self._vel[slot, r0 + 1:t + 1] = step_vel
        self._flag[slot, r0:t + 1] = True
        self._rewrites += [(slot, s) for s in steps]

        nxt = p_hat + direction * speed * dt
        if speed > 0.0 and self._module_crossings(row, p_hat, nxt)[0] >= 0:
            return p_hat.copy()
        return nxt

    def _flush_rewrites(self) -> None:
        """Extract every queued rewrite row in one call, encode them in one
        call and write them into the ring with one scatter.

        Row k is step s_k's recorded states of everyone active then (one
        gather from the state ring), with the subject's rewritten state
        (read from its slot arrays) and its module at the reset step; the
        rows are extract_batch's groups.  Windows are read only in
        _propose, so a flush after the step's commits gives the rows an
        immediate extraction would."""
        if not self._rewrites:
            return
        slots, steps = np.array(self._rewrites).T
        cols = steps % self.config.params.window
        group, entry = np.nonzero(self._recorded[:, cols].T)
        states = self._states[entry, cols[group]]
        subject = entry == slots[group]
        states[subject] = np.stack((self._pos[slots, steps], self._vel[slots, steps]), axis=1)
        rows = self._row[slots, self.step_index]
        self._store(slots, cols, extract_batch(
            states[:, 0], states[:, 1], np.where(subject, rows[group], -1),
            self.config.scene, self.config.params, groups=group))
        self._rewrites.clear()


def run_simulation(config: SimulationConfig, predictor) -> SimulationResult:
    """Step until every pedestrian has exited or max_steps is reached."""
    return Simulator(config, predictor).run()


def seeds_from_run(tracks, window: int) -> list[PedestrianSeed]:
    """Seed configs from a recorded run's Tracks (`ingest.Run.tracks`): the
    entry step steps[0] plus the first w positions.  Tracks shorter than
    the window are skipped."""
    return [PedestrianSeed(ped_id=t.ped_id, entry_step=int(t.steps[0]),
                           positions=t.positions[:window].copy())
            for t in tracks if len(t.steps) >= window]

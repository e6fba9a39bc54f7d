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
The slot arrays are a finished run's only copy: `SimulationResult`'s
records are `metrics.Track`s (steps[0] the entry step) that view them,
with module ids as strings, and `to_rows` yields its CSV rows one by one.

A step works on masks and index arrays over the slots, with no Python
per pedestrian outside the model: entrants are one scatter, seeded
proposals one gather from the (P, w, 2) seed array, and the commit one
scatter.  The model surface is two methods on arrays, `_propose` and
`_blocked` (where the step's blocked moves go instead).  The one wall
guard, right after `_propose`, tests every moved slot's move against its
module's active walls and hands the crossing moves to `_blocked`
together, with their walls.  A proposal outside every module snaps onto
the nearest boundary edge within JUNCTION_SNAP (one `snap_to_modules`
call per step); the moves that snap nowhere go to `_blocked` together
with no walls.  The social-force baseline overrides both methods and
holds every blocked move.

The TCN's `_blocked` resets its blocked pedestrians together: each one's
most recent simulated steps (never the seeded prefix) are replaced by a
guided constant-speed path 0.05 m clear of its wall (with no wall, its
module's nearest), aimed along it toward the exit (or straight at the
exit midpoint in bottleneck modules), else by standing there, and those
steps' window features are re-extracted against the neighbours' states
as recorded at each step, all of a step's rewrites in one call at step
end.  If neither path is clear, the pedestrian has reset already this
step, or a stranded move's module has no active walls, it holds position.

Each stage of a step is one kernel call for the whole crowd, and a stage
with no rows calls none: the wall guard and the exit test are one
`first_wall_crossings` call each, against `Scene.wall_table` and a
per-module exit table with one row per pedestrian's module, containment
is one `containing_rows` call, and so is each stage of a reset, from the
clear points to the chain tests (`_path_clear`).  The TCN keeps two
rings over every pedestrian, at [slot, s % w] for step s: encoded
feature rows (P, w, E), from one `predictor.encode` call per step (block
0's first-layer products, so each row is multiplied once, not once per
window that reads it), and the states recorded at step s, (P, w, 2, 2).
The predictor's input is one time-major gather of the feature ring
(`_windows`), and a step's window rewrites are one grouped extraction
over the recorded states of the slots active at their steps, encoded in
one call (`_flush_rewrites`); they never write back into the state ring.
Social force, which reads neither ring, makes neither.
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

    @property
    def truncated(self) -> bool:
        """Still active when the run stopped."""
        return not self.exited


TRAJECTORY_HEADER = ["run", "ped_id", "step", "time_s", "x_m", "y_m",
                     "module_id", "reset_flag"]


@dataclass(frozen=True)
class SimulationResult:
    scene: Scene
    dt: float
    trajectories: tuple[SimulatedTrajectory, ...]
    truncated: bool

    def to_rows(self, run_name: str):
        """Rows under TRAJECTORY_HEADER, pedestrians in id order, one at a time."""
        dt = float(self.dt)
        for traj in sorted(self.trajectories, key=lambda t: t.ped_id):
            for step, (x, y), module_id, reset in zip(traj.steps.tolist(),
                                                      traj.positions.tolist(),
                                                      traj.module_ids, traj.reset_flags.tolist()):
                yield [run_name, traj.ped_id, step, step * dt, x, y, module_id, int(reset)]


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
        # slot i's encoded feature row of step s at ring[i, s % w], and its
        # state recorded then; made by the first _store, on the TCN path only
        self._ring = self._states = None
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

        The TCN resets them together, each against its wall (with no wall,
        its module's nearest) and in its own slot only, and holds a
        pedestrian that has reset already this step or is stranded in a
        module with no active walls.
        """
        w, dt = self.config.params.window, self.config.dt
        table, valid = self._wall_table
        nxt, rows, held = self._pos[slots, t], self._row[slots, t], self._flag[slots, t + 1]
        if walls is None:
            held |= ~valid[rows].any(axis=1)
        go = np.flatnonzero(~held)
        self._flag[slots[go], t + 1] = True
        exit_mid = np.array([m.exit.mean(axis=0) for m in self.config.scene.modules])[rows]
        bottleneck = np.array([m.kind == "bottleneck" for m in self.config.scene.modules])[rows]
        vec = exit_mid - nxt
        nrm = np.hypot(vec[:, 0], vec[:, 1])
        go = go[~(bottleneck[go] & (nrm[go] < 1e-9))]   # at a bottleneck's exit: stays put
        if not go.size:
            return nxt, held
        slot, row, pos, vec, nrm = slots[go], rows[go], nxt[go], vec[go], nrm[go]
        if walls is None:
            own = table[row]
            gaps = closest_points_on_segments(pos[:, None], own[:, :, 0], own[:, :, 1])[1]
            walls = own[np.arange(len(go)), np.argmin(np.where(valid[row], gaps, np.inf), 1)]
        else:
            walls = walls[go]

        # the direction along the wall toward the exit midpoint (straight at
        # it in a bottleneck), and the clear point p_hat: the position, or
        # WALL_CLEARANCE off the wall along its normal toward the midpoint
        along = walls[:, 1] - walls[:, 0]
        along = along / np.hypot(along[:, 0], along[:, 1])[:, None]
        normal = np.stack((-along[:, 1], along[:, 0]), axis=1)
        c, dist = closest_points_on_segments(pos, walls[:, 0], walls[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            direction = np.where(bottleneck[go, None], vec / nrm[:, None],
                                 np.where(np.vecdot(along, vec)[:, None] >= 0.0, along, -along))
            away = (pos - c) / dist[:, None]
        normal = np.where(np.vecdot(normal, exit_mid[go] - c)[:, None] < 0.0, -normal, normal)
        normal = np.where(dist[:, None] > 1e-12, away, normal)
        p_hat = np.where(dist[:, None] >= WALL_CLEARANCE, pos, c + normal * WALL_CLEARANCE)

        # the steps to rewrite, the simulated ones of the window (never the
        # seeded prefix), t - w + 1 + c at its columns c >= first; each
        # reset's speed is np.mean of its own steps' (pairwise past 8)
        first = np.maximum(0, self._entry[slot] + 2 * w - 1 - t)
        speed = np.zeros(len(go))
        for f in set(first.tolist()) - {w}:
            v = self._vel[slot[first == f], t - w + 1 + f:t + 1]
            speed[first == f] = np.mean(np.hypot(v[..., 0], v[..., 1]), axis=1)
        speed = np.maximum(speed, MIN_GUIDED_SPEED)
        prev = self._pos[slot, t - w + first]
        back = np.arange(w - 1, -1, -1.0)[:, None]         # column c: w - 1 - c steps before t

        # the guided path at speed, else standing at p_hat; zeros, not
        # direction * 0.0, keep the standing velocities and offsets +0.0
        step_vel = direction * speed[:, None]
        ok = np.zeros(len(go), dtype=bool)
        todo = np.flatnonzero(first < w)
        for standing in (False, True):
            if standing:
                todo = todo[~ok[todo]]
                speed[todo], step_vel[todo] = 0.0, 0.0
            points = p_hat[:, None] - (step_vel * dt)[:, None] * back
            if todo.size:
                chains = np.concatenate((points[todo, :1], points[todo]), axis=1)
                chains[np.arange(len(todo)), first[todo]] = prev[todo]
                ok[todo] = self._path_clear(chains, first[todo], row[todo], walls[todo])

        # rewrites queue slot by slot, then step by step: encode may round a row by its place
        done = np.flatnonzero(ok)
        i, col = np.nonzero(np.arange(w) >= first[done][:, None])
        who, steps = slot[done[i]], t - w + 1 + col
        self._pos[who, steps] = points[done[i], col]
        self._vel[who, steps] = step_vel[done[i]]
        self._vel[slot[done], t - w + 1 + first[done]] = (
            (points[done, first[done]] - prev[done]) / dt)
        self._flag[who, steps] = True
        self._rewrites += zip(who.tolist(), steps.tolist())

        # one crossing test for the next moves: a first predicted step's
        # sidestep pos -> p_hat, and a moving path's step p_hat -> ahead
        ahead = p_hat + direction * speed[:, None] * dt
        side = ((first == w) & (np.hypot(*(p_hat - pos).T) >= 1e-12))[:, None]
        start, end = np.where(side, pos, p_hat), np.where(side, p_hat, ahead)
        test = side[:, 0] | ok & (speed > 0.0)
        hit = np.zeros(len(go), dtype=bool)
        if test.any():
            hit[test] = first_wall_crossings(start[test], end[test], table, valid, row[test]) >= 0
        nxt[go] = np.select([(ok & ~hit)[:, None], (ok | (first == w) & ~hit)[:, None]],
                            [ahead, p_hat], pos)
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
            self._states = np.zeros(shape + (2, 2))
        self._ring[slots, cols] = encoded

    def _crossings(self, p_from: np.ndarray, p_to: np.ndarray, table: np.ndarray,
                   valid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Index of the first segment that each move p_from -> p_to crosses
        among its row of table (rows in `Scene.wall_table` order), or -1:
        one kernel call, none for no moves."""
        if not len(rows):
            return np.full(0, -1)
        return first_wall_crossings(p_from, p_to, table, valid, rows)

    def _step_features(self, active: np.ndarray, pos: np.ndarray,
                       vel: np.ndarray) -> np.ndarray:
        """Feature rows of the active slots at states pos, vel, (N, D)."""
        return extract_batch(pos, vel, self._row[active, self.step_index],
                             self.config.scene, self.config.params)

    def run(self) -> SimulationResult:
        while self.step_index < self.config.max_steps and (
                self._active().size or self._has_pending()):
            self.step()
        ids = [m.id for m in self.config.scene.modules]
        trajectories = []
        for slot in np.flatnonzero(self._length).tolist():
            span = slice(self._entry[slot], self._entry[slot] + self._length[slot])
            trajectories.append(SimulatedTrajectory(
                ped_id=self._ids[slot], steps=np.arange(span.start, span.stop),
                dt=self.config.dt, positions=self._pos[slot, span],
                module_ids=tuple(ids[r] for r in self._row[slot, span].tolist()),
                reset_flags=self._flag[slot, span], exited=bool(self._exited[slot])))
        truncated = any(t.truncated for t in trajectories) or self._has_pending()
        return SimulationResult(scene=self.config.scene, dt=self.config.dt,
                                trajectories=tuple(trajectories), truncated=truncated)

    # -- the TCN's reset --------------------------------------------------

    def _path_clear(self, chains: np.ndarray, first: np.ndarray, rows: np.ndarray,
                    violated: np.ndarray) -> np.ndarray:
        """Whether each chain is clear, (b,) bool.  Chain i, chains[i,
        first[i]:] (b, k, 2), is a last kept position and then guided points
        that may not move across the active walls of table row rows[i], come
        within WALL_CLEARANCE of wall violated[i] or leave every module.  One
        kernel call per test over every chain; earlier columns are not read."""
        i, col = np.nonzero(np.arange(chains.shape[1]) > first[:, None])
        a, b = chains[i, col - 1], chains[i, col]
        moves = np.hypot(*(b - a).T) > 1e-12
        gaps = closest_points_on_segments(b, violated[i, 0], violated[i, 1])[1]
        bad = (gaps < WALL_CLEARANCE - 1e-9) | (containing_rows(self.config.scene, b) < 0)
        bad[moves] |= first_wall_crossings(a[moves], b[moves], *self._wall_table,
                                           rows[i[moves]]) >= 0
        return np.bincount(i[bad], minlength=len(chains)) == 0

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
        s = steps[:, None]      # a length counts the state after the last active step
        group, entry = np.nonzero((self._entry <= s) & (s <= self._entry + self._length - 2))
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

"""Social force baseline: driving, pedestrian-repulsion, and wall forces.

Force law per pedestrian i with position p_i, velocity v_i, radius r,
desired speed v_d and desired direction e:

  driving       (v_d*e - v_i) / tau                          (acceleration)
  pedestrian j  {A*exp((r_ij - d_ij)/B) + k*g(r_ij - d_ij)} * n_ij
                + kappa*g(r_ij - d_ij) * ((v_j - v_i) . t_ij) * t_ij
  wall W        {A*exp((r - d_iW)/B) + k*g(r - d_iW)} * n_iW
                - kappa*g(r - d_iW) * (v_i . t_iW) * t_iW

with g(x) = max(x, 0), n pointing toward the subject, t the tangential
unit vector, d_iW the distance to the nearest point of the wall segment.
Force terms are divided by the mass; the driving term is an acceleration
already.

Desired directions aim at the nearest point of the current module's exit
segment shrunk inward by the pedestrian radius (each module's shrunk exit
is built once per run, and a step's directions come from one call);
the force law runs once per moved pedestrian.  Its operands are built once
per run or per step, not per call: the wall terms (`segment_terms`) of the
scene's padded wall table are built once per run, every moved
pedestrian's closest points on its module's walls come from one
`project_on_segments` call per step, and one neighbour table per step
holds positions (the step's crowd, as `Simulator` records it, then W wall
slots), velocities (the crowd's, then zeros) and reach (2r, then r).  Each
moved pedestrian's wall points are written into the wall slots, and the
law reads views of the table with the subject's index: one subtraction per
operand, Helbing & Molnar's walls as neighbours at rest, and its final
2-vector arithmetic on Python floats.  Integration is semi-implicit Euler
(v then p) at the caller's dt, once per step over the whole crowd's
accelerations.

The run itself (entry seeding, prefix replay, the wall guard, exit
removal, module handoff, junction snap, truncation and the output format)
is the data-driven `Simulator`'s, on its per-slot arrays.  The model is
its two methods, on arrays: `_propose` gives the moved slots' positions
and velocities, and `_blocked` holds the step's blocked moves where the
TCN would reset, all of them with one gather of their current positions.
Desired speeds, drawn from a clamped normal distribution unless given,
and last directions are per-slot arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import closest_points_on_segments, project_on_segments, segment_terms
from .simulate import SimulationConfig, SimulationResult, Simulator

DESIRED_SPEED_CLAMP = (0.5, 2.5)
_QUARTER_TURN = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class SFParams:
    tau: float = 0.5                 # s
    A: float = 2000.0                # N
    B: float = 0.08                  # m
    k: float = 1.2e5                 # kg/s^2
    kappa: float = 2.4e5             # kg/(m*s)
    mass: float = 80.0               # kg
    radius: float = 0.3              # m
    desired_speed_mean: float = 1.4  # m/s
    desired_speed_std: float = 0.2   # m/s

    def __post_init__(self):
        for name in ("tau", "A", "B", "k", "kappa", "mass", "radius",
                     "desired_speed_mean"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.desired_speed_std < 0:
            raise ValueError("desired_speed_std must be >= 0")


def draw_desired_speeds(ped_ids, rng: np.random.Generator,
                        params: SFParams) -> dict[str, float]:
    """One clamped-normal desired speed per pedestrian, in sorted id order."""
    lo, hi = DESIRED_SPEED_CLAMP
    out = {}
    for pid in sorted(ped_ids):
        out[pid] = float(np.clip(
            rng.normal(params.desired_speed_mean, params.desired_speed_std), lo, hi))
    return out


def sf_acceleration(index: int, pos: np.ndarray, vel: np.ndarray, reach: np.ndarray,
                    crowd: int, desired_speed: float, direction,
                    params: SFParams) -> np.ndarray:
    """Net acceleration of the pedestrian at row index of a neighbour
    table: driving term plus repulsion force sums over mass.

    The table's rows pos, vel (k, 2) and reach (k,) are the crowd's crowd
    pedestrians (at 2r), then the subject's closest points on its walls
    (`project_on_segments`), at zero velocity and reach r.  Every row goes
    through one repulsion pass, with its velocity relative to the
    subject's, so a wall's is 0 - v.  The subject's own pair counts as
    infinitely far, so its two terms are exact zeros.  A neighbour closer
    than 1e-12 pushes along +x, with one warning per kind and call.
    """
    p, v = pos[index], vel[index]
    diff = p - pos
    d = np.hypot(diff[:, 0], diff[:, 1])
    d[index] = np.inf
    degenerate = d < 1e-12
    if np.count_nonzero(degenerate):
        for what, rows in (("overlapping pedestrians", degenerate[:crowd]),
                           ("pedestrian centered on a wall", degenerate[crowd:])):
            if rows.any():
                warnings.warn(f"{what}: falling back to a fixed repulsion direction",
                              RuntimeWarning)
        d = np.where(degenerate, 0.0, d)
        n = np.where(degenerate[:, None], (1.0, 0.0),
                     diff / np.where(degenerate, 1.0, d)[:, None])
    else:
        n = diff / d[:, None]
    t = n[:, ::-1] * _QUARTER_TURN                  # (-n_y, n_x), exactly
    dv = vel - v
    gap = reach - d
    overlap = np.maximum(gap, 0.0)

    # Add the terms one by one from zero, pedestrians then walls, normal
    # before friction: accumulate keeps that order, so rounding is the same
    # as a loop over the neighbours.  The sum starts at +0.0 and so is never
    # -0.0: adding the subject's zero terms, or a wall's friction term of
    # either sign of zero (0 - v and -v differ only in a zero's sign),
    # leaves its bits unchanged.
    terms = np.empty((2 * len(pos) + 1, 2))
    terms[0] = 0.0
    np.multiply((params.A * np.exp(gap / params.B) + params.k * overlap)[:, None], n,
                out=terms[1::2])
    np.multiply((params.kappa * overlap * np.vecdot(dv, t))[:, None], t, out=terms[2::2])
    fx, fy = np.add.accumulate(terms, axis=0)[-1].tolist()
    (vx, vy), (ex, ey) = v.tolist(), direction
    return np.array(((desired_speed * ex - vx) / params.tau + fx / params.mass,
                     (desired_speed * ey - vy) / params.tau + fy / params.mass))


def shrunk_exit(exit_segment, radius: float) -> np.ndarray:
    """Exit segment pulled in by the pedestrian radius at both endpoints."""
    seg = np.asarray(exit_segment, dtype=float)
    d = seg[1] - seg[0]
    length = float(np.hypot(*d))
    if length <= 2.0 * radius:
        mid = seg.mean(axis=0)
        return np.stack([mid, mid])
    u = d / length
    return np.stack([seg[0] + u * radius, seg[1] - u * radius])


def desired_directions(positions, targets, previous) -> np.ndarray:
    """Unit vectors from each position (m, 2) toward the nearest point of
    its shrunk exit segment targets[i] (m, 2, 2), in one call.

    A position already at that nearest point keeps previous[i] (m, 2);
    pass +x for a pedestrian with no direction yet.
    """
    p = np.asarray(positions, dtype=float)
    seg = np.asarray(targets, dtype=float)
    target, dist = closest_points_on_segments(p, seg[:, 0], seg[:, 1])
    at_target = dist < 1e-9
    toward = (target - p) / np.where(at_target, 1.0, dist)[:, None]
    return np.where(at_target[:, None], np.asarray(previous, dtype=float), toward)


class _SocialForceSimulator(Simulator):
    """`Simulator` whose steps come from the force law instead of a TCN."""

    def __init__(self, config: SimulationConfig, params: SFParams,
                 desired_speeds: dict[str, float]):
        super().__init__(config, predictor=None)
        self.sf_params = params
        # per slot: desired speed, and last desired direction (+x before the first)
        self._speeds = np.array([desired_speeds[pid] for pid in self._ids], dtype=float)
        self._directions = np.tile((1.0, 0.0), (len(self._ids), 1))
        # per module, in Scene.wall_table's row order: shrunk exit, wall
        # terms (padded) and active wall count
        self._targets = np.stack([shrunk_exit(m.exit, params.radius)
                                  for m in config.scene.modules])
        table, valid = self._wall_table
        self._wall_terms = segment_terms(table[:, :, 0], table[:, :, 1])
        self._wall_counts = valid.sum(axis=1)

    def _propose(self, active, moved, pos, vel, t):
        """One force-law step per moved pedestrian; no features, no network."""
        if not moved.any():
            return np.empty((0, 2)), np.empty((0, 2))
        dt = self.config.dt
        index = np.flatnonzero(moved)
        slots = active[index]
        rows = self._row[slots, t]
        p, v = pos[index], vel[index]
        directions = desired_directions(p, self._targets[rows], self._directions[slots])
        self._directions[slots] = directions
        # every subject's closest points on its module's padded walls (m, W, 2)
        a, ab, len2 = self._wall_terms
        points = project_on_segments(p[:, None], a[rows], ab[rows], len2[rows])
        # the step's neighbour table: the crowd, then W wall slots at rest,
        # which take each subject's wall points in turn
        n, walls, radius = len(pos), a.shape[1], self.sf_params.radius
        table_pos = np.concatenate((pos, np.zeros((walls, 2))))
        table_vel = np.concatenate((vel, np.zeros((walls, 2))))
        reach = np.concatenate((np.full(n, 2.0 * radius), np.full(walls, radius)))
        acc = np.empty((len(index), 2))
        for i, (speed, e, count) in enumerate(zip(self._speeds[slots].tolist(),
                                                   directions.tolist(),
                                                   self._wall_counts[rows].tolist())):
            table_pos[n:n + count] = points[i, :count]
            acc[i] = sf_acceleration(index[i], table_pos[:n + count], table_vel[:n + count],
                                     reach[:n + count], n, speed, e, self.sf_params)
        v_new = v + acc * dt
        return p + v_new * dt, v_new

    def _blocked(self, slots, walls, t):
        """Social force holds every blocked move."""
        return self._pos[slots, t], np.ones(len(slots), dtype=bool)


def sf_run(config: SimulationConfig, params: SFParams,
           rng: Optional[np.random.Generator] = None,
           desired_speeds: Optional[dict[str, float]] = None) -> SimulationResult:
    """Integrate the social force model under the shared run contract."""
    if desired_speeds is None:
        if rng is None:
            raise ValueError("pass an rng or explicit desired_speeds")
        desired_speeds = draw_desired_speeds(
            [s.ped_id for s in config.pedestrians], rng, params)
    for seed in config.pedestrians:
        if seed.ped_id not in desired_speeds:
            raise ValueError(f"no desired speed for pedestrian {seed.ped_id!r}")
        if not 0.0 <= desired_speeds[seed.ped_id] < np.inf:
            raise ValueError(f"desired speed of pedestrian {seed.ped_id!r} must be finite "
                             f"and >= 0, got {desired_speeds[seed.ped_id]}")
    return _SocialForceSimulator(config, params, desired_speeds).run()

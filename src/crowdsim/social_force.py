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
the force law runs once per moved pedestrian.  Its inputs cost no per-call
work: the wall terms (`segment_terms`) of the scene's padded wall table are
built once per run, every moved pedestrian's closest points on its
module's walls come from one `project_on_segments` call per step, and the
law reads the step's full positions and velocities (the states `Simulator`
records) with the subject's index.  Integration is semi-implicit Euler (v
then p) at the caller's dt, once per step over the whole crowd's
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


def sf_acceleration(index: int, pos: np.ndarray, vel: np.ndarray, desired_speed: float,
                    direction, wall_points: np.ndarray, params: SFParams) -> np.ndarray:
    """Net acceleration of pedestrian index of the crowd pos, vel (N, 2):
    driving term plus repulsion force sums over mass.

    wall_points (m, 2) are the subject's closest points on its m walls
    (`project_on_segments`).  The crowd and then the walls go through one
    repulsion pass as N + m neighbours, each
    at its reach (2r for a pedestrian, r for a wall) and with its velocity
    relative to the subject (-v for a wall).  The subject's own pair counts
    as infinitely far, so its two terms are exact zeros.  A neighbour
    closer than 1e-12 pushes along +x, with one warning per kind and call.
    """
    p, v = pos[index], vel[index]
    e = np.asarray(direction, dtype=float)
    n_peds = len(pos)
    k = n_peds + len(wall_points)
    diff = np.empty((k, 2))
    np.subtract(p, pos, out=diff[:n_peds])
    np.subtract(p, wall_points, out=diff[n_peds:])
    d = np.hypot(diff[:, 0], diff[:, 1])
    d[index] = np.inf
    degenerate = d < 1e-12
    if degenerate.any():
        for what, rows in (("overlapping pedestrians", degenerate[:n_peds]),
                           ("pedestrian centered on a wall", degenerate[n_peds:])):
            if rows.any():
                warnings.warn(f"{what}: falling back to a fixed repulsion direction",
                              RuntimeWarning)
        d = np.where(degenerate, 0.0, d)
        n = np.where(degenerate[:, None], (1.0, 0.0),
                     diff / np.where(degenerate, 1.0, d)[:, None])
    else:
        n = diff / d[:, None]
    t = n[:, ::-1] * _QUARTER_TURN                  # (-n_y, n_x), exactly
    dv = np.empty_like(diff)
    np.subtract(vel, v, out=dv[:n_peds])
    dv[n_peds:] = -v                    # kappa*o*((-v).t) is -kappa*o*(v.t), bit for bit
    gap = np.empty(k)
    np.subtract(2.0 * params.radius, d[:n_peds], out=gap[:n_peds])
    np.subtract(params.radius, d[n_peds:], out=gap[n_peds:])
    overlap = np.maximum(gap, 0.0)

    # Add the terms one by one from zero, pedestrians then walls, normal
    # before friction: accumulate keeps that order, so rounding is the same
    # as a loop over the neighbours.  The sum starts at +0.0 and so is never
    # -0.0, and adding the subject's zero terms leaves its bits unchanged.
    terms = np.empty((2 * k + 1, 2))
    terms[0] = 0.0
    np.multiply((params.A * np.exp(gap / params.B) + params.k * overlap)[:, None], n,
                out=terms[1::2])
    np.multiply((params.kappa * overlap * np.vecdot(dv, t))[:, None], t, out=terms[2::2])
    force = np.add.accumulate(terms, axis=0)[-1]
    return (desired_speed * e - v) / params.tau + force / params.mass


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
        acc = np.empty((len(index), 2))
        for i, (speed, e, count) in enumerate(zip(self._speeds[slots].tolist(), directions,
                                                   self._wall_counts[rows].tolist())):
            acc[i] = sf_acceleration(index[i], pos, vel, speed, e,
                                     points[i, :count], self.sf_params)
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

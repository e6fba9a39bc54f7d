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
the force law runs once per moved pedestrian.  Integration is
semi-implicit Euler (v then p) at the caller's dt, and a step that would
cross a wall holds position.  The run itself (entry seeding, prefix
replay, exit removal, module handoff, junction snap, truncation and the
output format) is the data-driven `Simulator`'s: the model only proposes
each step's positions, and holds where the TCN would reset.  Desired
speeds are drawn per pedestrian from a clamped normal distribution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import closest_points_on_segments
from .simulate import SimulationConfig, SimulationResult, Simulator

DESIRED_SPEED_CLAMP = (0.5, 2.5)


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


def sf_acceleration(position, velocity, desired_speed: float, direction,
                    others_pos, others_vel, walls, params: SFParams) -> np.ndarray:
    """Net acceleration: driving term plus repulsion force sums over mass.

    Pedestrians and then walls go through one repulsion pass as k
    neighbours, each at its reach (2r for a pedestrian, r for a wall) and
    with its velocity relative to the subject (-v for a wall).  A neighbour
    closer than 1e-12 pushes along +x, with one warning per kind and call.
    """
    p = np.asarray(position, dtype=float)
    v = np.asarray(velocity, dtype=float)
    e = np.asarray(direction, dtype=float)
    others_pos = np.asarray(others_pos, dtype=float).reshape(-1, 2)
    others_vel = np.asarray(others_vel, dtype=float).reshape(-1, 2)
    walls = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    n_peds = len(others_pos)

    c = closest_points_on_segments(p, walls[:, 0], walls[:, 1])[0]
    diff = p - np.concatenate([others_pos, c])                  # (k, 2)
    d = np.hypot(diff[:, 0], diff[:, 1])
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
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    dv = np.empty_like(diff)
    dv[:n_peds] = others_vel - v
    dv[n_peds:] = -v                    # kappa*o*((-v).t) is -kappa*o*(v.t), bit for bit
    gap = np.repeat([2.0 * params.radius, params.radius], [n_peds, len(c)]) - d
    overlap = np.where(gap > 0.0, gap, 0.0)

    # Add the terms one by one from zero, pedestrians then walls, normal
    # before friction: accumulate keeps that order, so rounding is the same
    # as a loop over the neighbours.
    terms = np.empty((2 * len(d) + 1, 2))
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
        self.desired_speeds = desired_speeds
        self._directions: dict[str, np.ndarray] = {}
        self._targets = {m.id: shrunk_exit(m.exit, params.radius) for m in config.scene.modules}

    def _propose(self, active, moved, snap, t) -> None:
        """One force-law step per moved pedestrian; no features, no network.
        A step that crosses a wall holds position instead."""
        if not moved:
            return
        cfg = self.config
        directions = desired_directions(
            [ped.positions[-1] for ped in moved],
            [self._targets[ped.module_id] for ped in moved],
            [self._directions.get(ped.ped_id, (1.0, 0.0)) for ped in moved])
        for ped, e in zip(moved, directions):
            pos, vel = ped.positions[-1], ped.velocities[-1]
            self._directions[ped.ped_id] = e
            acc = sf_acceleration(pos, vel, self.desired_speeds[ped.ped_id], e,
                                  *snap.others(ped.ped_id), self._walls[ped.module_id],
                                  self.sf_params)
            v_new = vel + acc * cfg.dt
            ped._proposal, ped._velocity = pos + v_new * cfg.dt, v_new
        for ped, idx in zip(moved, self._crossings(moved, self._walls)):
            if idx >= 0:
                ped._proposal, ped._velocity = ped.positions[-1].copy(), np.zeros(2)

    def _stranded(self, ped, nxt, t):
        return self._hold(ped)


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
    return _SocialForceSimulator(config, params, desired_speeds).run()

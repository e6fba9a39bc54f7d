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
segment shrunk inward by the pedestrian radius; integration is
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

from .geometry import active_exit, active_walls, closest_point_on_segment, first_wall_crossing
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


def _g(x: float) -> float:
    return x if x > 0.0 else 0.0


def sf_acceleration(position, velocity, desired_speed: float, direction,
                    others_pos, others_vel, walls, params: SFParams) -> np.ndarray:
    """Net acceleration: driving term plus repulsion force sums over mass."""
    p = np.asarray(position, dtype=float)
    v = np.asarray(velocity, dtype=float)
    e = np.asarray(direction, dtype=float)
    force = np.zeros(2)

    others_pos = np.asarray(others_pos, dtype=float).reshape(-1, 2)
    others_vel = np.asarray(others_vel, dtype=float).reshape(-1, 2)
    r_sum = 2.0 * params.radius
    for q, vq in zip(others_pos, others_vel):
        diff = p - q
        d = float(np.hypot(*diff))
        if d < 1e-12:
            warnings.warn("overlapping pedestrians: falling back to a fixed "
                          "repulsion direction", RuntimeWarning)
            n = np.array([1.0, 0.0])
            d = 0.0
        else:
            n = diff / d
        overlap = _g(r_sum - d)
        t = np.array([-n[1], n[0]])
        force += (params.A * np.exp((r_sum - d) / params.B) + params.k * overlap) * n
        force += params.kappa * overlap * float((vq - v) @ t) * t

    walls = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    for wall in walls:
        c, d = closest_point_on_segment(p, wall[0], wall[1])
        if d < 1e-12:
            warnings.warn("pedestrian centered on a wall: falling back to a "
                          "fixed repulsion direction", RuntimeWarning)
            n = np.array([1.0, 0.0])
            d = 0.0
        else:
            n = (p - c) / d
        overlap = _g(params.radius - d)
        t = np.array([-n[1], n[0]])
        force += (params.A * np.exp((params.radius - d) / params.B)
                  + params.k * overlap) * n
        force += -params.kappa * overlap * float(v @ t) * t

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


def desired_direction(position, exit_segment, radius: float,
                      previous: Optional[np.ndarray] = None) -> np.ndarray:
    """Unit vector toward the nearest point of the shrunk exit segment.

    A position already at that nearest point keeps the previous direction
    (or +x when none is known).
    """
    p = np.asarray(position, dtype=float)
    seg = shrunk_exit(exit_segment, radius)
    target, dist = closest_point_on_segment(p, seg[0], seg[1])
    if dist < 1e-9:
        if previous is None:
            return np.array([1.0, 0.0])
        return np.asarray(previous, dtype=float).copy()
    return (target - p) / dist


class _SocialForceSimulator(Simulator):
    """`Simulator` whose steps come from the force law instead of a TCN."""

    def __init__(self, config: SimulationConfig, params: SFParams,
                 desired_speeds: dict[str, float]):
        super().__init__(config, predictor=None)
        self.sf_params = params
        self.desired_speeds = desired_speeds
        self._directions: dict[str, np.ndarray] = {}

    def _propose(self, active, moved, snap, t) -> None:
        """One force-law step per moved pedestrian; no features, no network."""
        cfg = self.config
        for ped in moved:
            pos, vel = ped.positions[-1], ped.velocities[-1]
            walls = active_walls(cfg.scene, ped.module_id)
            e = desired_direction(pos, active_exit(cfg.scene, ped.module_id),
                                  self.sf_params.radius, self._directions.get(ped.ped_id))
            self._directions[ped.ped_id] = e
            acc = sf_acceleration(pos, vel, self.desired_speeds[ped.ped_id], e,
                                  *self._neighbors(snap, ped.ped_id), walls, self.sf_params)
            v_new = vel + acc * cfg.dt
            nxt = pos + v_new * cfg.dt
            if first_wall_crossing(pos, nxt, walls) is not None:
                nxt, v_new = pos.copy(), np.zeros(2)
            ped._proposal, ped._velocity = nxt, v_new

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

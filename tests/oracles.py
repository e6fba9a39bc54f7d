"""Scalar references of the package's batched kernels, used only by tests.

Each function here computes one pedestrian, one ray or one point the plain
way, and the tests hold a batched kernel of `crowdsim` to it:

* `reference_ray_distances` (the ray kernel over one shared wall set,
  with its collinear branch evaluated over every triple):
  `geometry.ray_distances`, bit for bit, on table rows of one wall set
  per origin, of one shared set and of a scene's `wall_table`; `ray_cast`,
  `ray_cast_batch` and `wall_points_in_disk` cast through it;
* `scalar_first_wall_crossing`: `geometry.first_wall_crossings`, bit for
  bit (`geometry.first_wall_crossing` is the kernel's one-move view);
* `closest_point_on_segment`: `geometry.closest_points_on_segments`, bit
  for bit;
* `point_in_polygon` and `scalar_point_in_module`: `points_in_polygon`
  (a one-polygon view of `geometry._points_in_polygons`) and
  `geometry.point_in_modules` (`geometry.point_in_module` is the latter's
  one-point view);
* `desired_direction`: `social_force.desired_directions`, bit for bit;
* `wall_points_in_disk`, `extract_social`, `extract_visual`,
  `extract_exit`, `assemble_step` and `extract_step`:
  `features.extract_batch` (`_wall_points_batch`, `_visual_batch`), bit
  for bit;
* `dilated_causal_conv`: `network._WeightNormConv.forward`, to 1e-12;
* `samples_to_arrays`: `ingest.Windows`, whose batches equal its stacked
  arrays at the same indices, bit for bit;
* `DequeWindowSimulator` (each pedestrian's feature window in its own
  deque, stacked for the predictor): `simulate.Simulator`'s window ring,
  whose predictor inputs equal the stacked deques byte for byte.

`active_exit`, `point_segment_distance`, `rect_contains`, `velocity_at`,
`stack_window`, `snapshot_others` and the two velocity stubs are small
helpers that tests build their cases with.  The module is not collected by pytest (its name
does not start with "test_"); tests import it as a sibling module, and
`test_oracles.py` keeps these names out of the package, its classes
included; a helper named `<class>_<name>` is also kept from returning as
method `<name>` of that class (`snapshot_others` was `_Snapshot.others`).
"""
from __future__ import annotations

import warnings
from collections import deque
from typing import Optional

import numpy as np

from crowdsim.features import (TWO_PI, ExtractionParams, _ordered_exit, _sector_of,
                               extract_batch)
from crowdsim.geometry import (
    GEOM_EPS,
    Point2,
    Scene,
    _as_walls,
    _points_in_polygons,
    closest_points_on_segments,
    polygon_edges,
    rect_mask,
)
from crowdsim.simulate import Simulator
from crowdsim.social_force import shrunk_exit


def reference_ray_distances(origins, d: np.ndarray, seg: np.ndarray,
                            collinear: bool = True) -> np.ndarray:
    """Distance along each unit ray d (k, 2) from each origin (..., 2) to each wall (m, 2, 2).

    Returns shape (..., k, m), +inf where the ray misses the wall.  With
    collinear=False a ray running along a wall misses it; otherwise it hits
    at the nearest overlap point.
    """
    o = np.asarray(origins, dtype=float)[..., None, None, :]   # (..., 1, 1, 2)
    p0 = seg[:, 0, :]                                           # (m, 2)
    s = seg[:, 1, :] - seg[:, 0, :]                             # (m, 2)
    slen = np.linalg.norm(s, axis=1)                            # (m,)
    a0 = p0 - o                                                 # (..., 1, m, 2)
    dx, dy = d[:, None, 0], d[:, None, 1]                       # (k, 1)

    # 2x2 solve via cross products: t*d - u*s = p0 - o.
    denom = dx * s[:, 1] - dy * s[:, 0]                         # (k, m)
    a0xs = a0[..., 0] * s[:, 1] - a0[..., 1] * s[:, 0]          # (..., 1, m)
    a0xd = a0[..., 0] * dy - a0[..., 1] * dx                    # (..., k, m)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = a0xs / denom
        u = a0xd / denom

    eps_u = GEOM_EPS / np.maximum(slen, GEOM_EPS)               # metric endpoint slack
    nonpar = np.abs(denom) > 1e-12
    ok = nonpar & (t >= -GEOM_EPS) & (u >= -eps_u) & (u <= 1.0 + eps_u)
    t_hit = np.where(ok, np.maximum(t, 0.0), np.inf)

    # Parallel rays: collinear overlap hits at the nearest overlap point.
    par = ~nonpar
    if collinear and np.any(par):
        perp = np.abs(a0xd)                                     # distance of p0 from the ray line
        ta = a0[..., 0] * dx + a0[..., 1] * dy
        tb = ta + (s[:, 0] * dx + s[:, 1] * dy)
        lo = np.minimum(ta, tb)
        hi = np.maximum(ta, tb)
        okp = par & (perp <= GEOM_EPS) & (hi >= -GEOM_EPS)
        t_par = np.where(okp, np.maximum(lo, 0.0), np.inf)
        t_hit = np.minimum(t_hit, t_par)
    return t_hit


def ray_cast(origin: Point2, angle: float, walls) -> Optional[tuple[Point2, float]]:
    """First intersection of the ray (origin, angle) with any wall segment.

    Returns (hit_point, distance) or None when no wall is hit.  Segment
    endpoints are inclusive; a ray running along a collinear wall hits the
    nearest overlap point; an origin lying on a wall hits at distance 0.
    """
    dists = ray_cast_batch(origin, np.asarray([angle], dtype=float), walls)[0]
    if not np.isfinite(dists[0]):
        return None
    t = float(dists[0])
    ox, oy = float(origin[0]), float(origin[1])
    return (ox + t * np.cos(angle), oy + t * np.sin(angle)), t


def ray_cast_batch(origin: Point2, angles: np.ndarray, walls) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ray cast for many angles against the same wall set.

    Returns (distances, points) with shapes (k,) and (k, 2); misses are
    +inf distances and nan points.
    """
    angles = np.asarray(angles, dtype=float)
    seg = _as_walls(walls)
    k = angles.shape[0]
    out_t = np.full(k, np.inf)
    if seg.shape[0] == 0 or k == 0:
        pts = np.full((k, 2), np.nan)
        return out_t, pts

    o = np.asarray(origin, dtype=float)
    d = np.stack([np.cos(angles), np.sin(angles)], axis=1)      # (k, 2)
    out_t = reference_ray_distances(o, d, seg).min(axis=1)
    with np.errstate(invalid="ignore"):
        pts = o[None, :] + out_t[:, None] * d
    pts[~np.isfinite(out_t)] = np.nan
    return out_t, pts


def scalar_first_wall_crossing(p_from: Point2, p_to: Point2, walls) -> Optional[int]:
    """Index of the wall crossed first along the displacement, or None."""
    seg = _as_walls(walls)
    if seg.shape[0] == 0:
        return None
    a = np.asarray(p_from, dtype=float)
    b = np.asarray(p_to, dtype=float)
    d = b - a
    dlen = np.linalg.norm(d)

    p0 = seg[:, 0, :]
    s = seg[:, 1, :] - seg[:, 0, :]
    slen = np.linalg.norm(s, axis=1)
    a0 = p0 - a

    denom = d[0] * s[:, 1] - d[1] * s[:, 0]
    a0xs = a0[:, 0] * s[:, 1] - a0[:, 1] * s[:, 0]
    a0xd = a0[:, 0] * d[1] - a0[:, 1] * d[0]

    with np.errstate(divide="ignore", invalid="ignore"):
        t = a0xs / denom
        u = a0xd / denom

    eps_t = GEOM_EPS / max(dlen, GEOM_EPS)
    eps_u = GEOM_EPS / np.maximum(slen, GEOM_EPS)
    nonpar = np.abs(denom) > 1e-12
    ok = nonpar & (t >= -eps_t) & (t <= 1.0 + eps_t) & (u >= -eps_u) & (u <= 1.0 + eps_u)
    t_hit = np.where(ok, np.clip(t, 0.0, 1.0), np.inf)

    par = ~nonpar
    if np.any(par) and dlen > GEOM_EPS:
        dn = d / dlen
        perp = np.abs(a0[:, 0] * dn[1] - a0[:, 1] * dn[0])
        ta = (a0 @ dn) / dlen
        tb = ta + (s @ dn) / dlen
        lo = np.minimum(ta, tb)
        hi = np.maximum(ta, tb)
        okp = par & (perp <= GEOM_EPS) & (hi >= -eps_t) & (lo <= 1.0 + eps_t)
        t_par = np.where(okp, np.clip(lo, 0.0, 1.0), np.inf)
        t_hit = np.minimum(t_hit, t_par)

    best = int(np.argmin(t_hit))
    if not np.isfinite(t_hit[best]):
        return None
    return best


def closest_point_on_segment(p: Point2, a: Point2, b: Point2) -> tuple[np.ndarray, float]:
    """Closest point of segment a-b to p (clamped projection) and its distance."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    ab = np.asarray(b, dtype=float) - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else min(max(float((p - a) @ ab) / denom, 0.0), 1.0)
    c = a + t * ab
    dx, dy = p - c
    return c, float(np.hypot(dx, dy))


def point_in_polygon(p: Point2, boundary: np.ndarray) -> bool:
    """Even-odd containment; points on the boundary count as inside."""
    poly = np.asarray(boundary, dtype=float)
    x, y = float(p[0]), float(p[1])
    nxt = np.concatenate((poly[1:], poly[:1]))
    if closest_points_on_segments((x, y), poly, nxt)[1].min() <= GEOM_EPS:
        return True
    # Even-odd count of the edges that straddle y and cross the ray from p
    # toward +x; x_cross is anchored at the edge's later vertex i, as in an
    # edge loop with j = i - 1, so it rounds the same way.
    xi, yi, xj, yj = nxt[:, 0], nxt[:, 1], poly[:, 0], poly[:, 1]
    crosses = (yi > y) != (yj > y)
    x_cross = xi + (y - yi) / np.where(crosses, yj - yi, 1.0) * (xj - xi)
    return bool(np.count_nonzero(crosses & (x < x_cross)) % 2)


def points_in_polygon(points, boundary: np.ndarray) -> np.ndarray:
    """Even-odd containment of every point (k, 2): (k,) bool.  Points on
    the boundary count as inside."""
    return _points_in_polygons(points, *polygon_edges(boundary), [0])[:, 0]


def scalar_point_in_module(scene: Scene, p: Point2) -> Optional[str]:
    """Id of the first module (traversal order) containing p, else None."""
    for m in scene.modules:
        if point_in_polygon(p, m.boundary):
            return m.id
    return None


def snapshot_others(snap, ped_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of every pedestrian of a `simulate._Snapshot`
    but ped_id, in id order: one subject's neighbours for `extract_step`."""
    i = snap.index[ped_id]
    return (np.concatenate((snap.pos[:i], snap.pos[i + 1:])),
            np.concatenate((snap.vel[:i], snap.vel[i + 1:])))


def active_exit(scene: Scene, module_id: str) -> np.ndarray:
    """Exit segment endpoints of a module, shape (2, 2)."""
    return scene.module(module_id).exit.copy()


def point_segment_distance(p: Point2, seg) -> float:
    """Distance from a point to a segment (clamped projection)."""
    s = np.asarray(seg, dtype=float)
    return closest_point_on_segment(p, s[0], s[1])[1]


def rect_contains(area, p: Point2) -> bool:
    """`rect_mask` of one point."""
    return bool(rect_mask(area, p)[0])


def wall_points_in_disk(position, walls, radius: float, n_sectors: int):
    """Nearest wall point per sector wedge, restricted to the disk.

    Returns (dists, points): shape (n_sectors,) and (n_sectors, 2), with
    +inf / nan where a wedge contains no wall point within the radius.
    The minimisation uses closed wedges; a point on a shared boundary ray
    serves both adjacent sectors.
    """
    pos = np.asarray(position, dtype=float)
    seg = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    width = TWO_PI / n_sectors
    dists = np.full(n_sectors, np.inf)
    points = np.full((n_sectors, 2), np.nan)
    if seg.shape[0] == 0:
        return dists, points

    cand_sec: list[np.ndarray] = []
    cand_dist: list[np.ndarray] = []
    cand_pt: list[np.ndarray] = []

    a = seg[:, 0, :]
    b = seg[:, 1, :]
    ab = b - a
    len2 = np.maximum(np.einsum("md,md->m", ab, ab), GEOM_EPS**2)

    # Candidate 1: unconstrained closest point of each segment.
    tproj = np.clip(((pos[None, :] - a) * ab).sum(axis=1) / len2, 0.0, 1.0)
    proj = a + tproj[:, None] * ab
    rel = proj - pos[None, :]
    d_proj = np.linalg.norm(rel, axis=1)
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    keep = d_proj <= radius
    # A projection collapsing onto the subject belongs to every wedge.
    on_subject = keep & (d_proj <= GEOM_EPS)
    regular = keep & ~on_subject
    cand_sec.append(_sector_of(ang[regular], n_sectors))
    cand_dist.append(d_proj[regular])
    cand_pt.append(proj[regular])
    if np.any(on_subject):
        for m in np.flatnonzero(on_subject):
            cand_sec.append(np.arange(n_sectors))
            cand_dist.append(np.full(n_sectors, d_proj[m]))
            cand_pt.append(np.tile(proj[m], (n_sectors, 1)))

    # Candidate 2: segment endpoints.
    for pts in (a, b):
        rel = pts - pos[None, :]
        d = np.linalg.norm(rel, axis=1)
        keep = (d <= radius) & (d > GEOM_EPS)
        ang = np.arctan2(rel[keep, 1], rel[keep, 0])
        cand_sec.append(_sector_of(ang, n_sectors))
        cand_dist.append(d[keep])
        cand_pt.append(pts[keep])

    # Candidate 3: intersections with the sector boundary rays; each one
    # serves the wedges on both sides of the ray.
    bounds = np.arange(n_sectors) * width
    t_hit = reference_ray_distances(pos, np.stack([np.cos(bounds), np.sin(bounds)], axis=1),
                                    seg, collinear=False)       # (n_sectors, m)
    jj, mm = np.nonzero(np.isfinite(t_hit) & (t_hit <= radius))
    if jj.size:
        t = t_hit[jj, mm]
        pts = pos[None, :] + t[:, None] * np.stack(
            [np.cos(bounds[jj]), np.sin(bounds[jj])], axis=1)
        for shift in (0, -1):
            cand_sec.append(np.mod(jj + shift, n_sectors))
            cand_dist.append(t)
            cand_pt.append(pts)

    sec = np.concatenate(cand_sec)
    dist = np.concatenate(cand_dist)
    pts = np.concatenate(cand_pt, axis=0) if sec.size else np.zeros((0, 2))
    if sec.size == 0:
        return dists, points
    order = np.lexsort((dist, sec))
    sec_sorted = sec[order]
    first = np.unique(sec_sorted, return_index=True)[1]
    for k in first:
        j = sec_sorted[k]
        dists[j] = dist[order[k]]
        points[j] = pts[order[k]]
    return dists, points


def extract_social(position, velocity, others_pos, others_vel, walls,
                   params: ExtractionParams) -> np.ndarray:
    """Nearest-entity table over the perception disk, shape (n_sectors, 4).

    Each row holds (dx, dy, dvx, dvy) of the nearest pedestrian or wall
    point in that sector; empty sectors fall back to a static virtual
    entity at the sector's arc midpoint on the disk rim.  Distance ties
    prefer pedestrians, then the lower pedestrian index.
    """
    pos = np.asarray(position, dtype=float)
    vel = np.asarray(velocity, dtype=float)
    opos = np.asarray(others_pos, dtype=float).reshape(-1, 2)
    ovel = np.asarray(others_vel, dtype=float).reshape(-1, 2)
    n = params.n_sectors
    width = TWO_PI / n

    best_dist = np.full(n, np.inf)
    best_pos = np.zeros((n, 2))
    best_vel = np.zeros((n, 2))

    if opos.shape[0]:
        rel = opos - pos[None, :]
        d = np.linalg.norm(rel, axis=1)
        keep = d <= params.radius
        idx = np.flatnonzero(keep)
        if idx.size:
            ang = np.arctan2(rel[idx, 1], rel[idx, 0])
            sec = _sector_of(ang, n)
            # A co-located pedestrian has no defined bearing: sector 0.
            sec = np.where(d[idx] <= GEOM_EPS, 0, sec)
            order = np.lexsort((idx, d[idx], sec))
            sec_sorted = sec[order]
            first = np.unique(sec_sorted, return_index=True)[1]
            for k in first:
                j = sec_sorted[k]
                i = idx[order[k]]
                best_dist[j] = d[i]
                best_pos[j] = opos[i]
                best_vel[j] = ovel[i]

    wd, wp = wall_points_in_disk(pos, walls, params.radius, n)
    wall_wins = wd < best_dist          # pedestrians win exact ties
    best_dist = np.where(wall_wins, wd, best_dist)
    best_pos = np.where(wall_wins[:, None], wp, best_pos)
    best_vel = np.where(wall_wins[:, None], 0.0, best_vel)

    empty = ~np.isfinite(best_dist)
    if np.any(empty):
        mid = (np.flatnonzero(empty) + 0.5) * width
        best_pos[empty] = pos[None, :] + params.radius * np.stack(
            [np.cos(mid), np.sin(mid)], axis=1)
        best_vel[empty] = 0.0

    out = np.empty((n, 4))
    out[:, 0:2] = best_pos - pos[None, :]
    out[:, 2:4] = best_vel - vel[None, :]
    return out


def extract_visual(position, walls, params: ExtractionParams) -> np.ndarray:
    """Relative visual points along evenly spaced rays, shape (n_rays, 2).

    Ray k points at angle k * ray_deg from the positive x axis.  A ray
    blocked by a wall contributes the hit point; an unobstructed ray
    contributes the point at the vision range.
    """
    pos = np.asarray(position, dtype=float)
    n = params.n_rays
    angles = np.arange(n) * (TWO_PI / n)
    dists, pts = ray_cast_batch(pos, angles, walls)
    miss = ~np.isfinite(dists)
    if np.any(miss):
        pts = pts.copy()
        pts[miss] = pos[None, :] + params.vision_range * np.stack(
            [np.cos(angles[miss]), np.sin(angles[miss])], axis=1)
    if int(miss.sum()) * 2 > n:
        warnings.warn(
            f"{int(miss.sum())}/{n} vision rays hit no wall; "
            "the subject may be outside the scene geometry",
            RuntimeWarning, stacklevel=2)
    return pts - pos[None, :]


def extract_exit(position, exit_segment) -> np.ndarray:
    """Relative exit endpoints, shape (2, 2), lexicographically ordered.

    Ordering uses the absolute endpoint coordinates (x, then y) so the
    row order does not depend on the subject's position.
    """
    return _ordered_exit(exit_segment) - np.asarray(position, dtype=float)[None, :]


def assemble_step(velocity, social: np.ndarray, visual: np.ndarray,
                  exit_rel: np.ndarray, params: ExtractionParams) -> np.ndarray:
    """Flatten one step's blocks into the feature vector (row-major)."""
    vel = np.asarray(velocity, dtype=float).reshape(-1)
    if vel.shape != (2,):
        raise ValueError(f"velocity must have 2 entries, got {vel.shape}")
    if social.shape != (params.n_sectors, 4):
        raise ValueError(f"social block must be {(params.n_sectors, 4)}, got {social.shape}")
    if visual.shape != (params.n_rays, 2):
        raise ValueError(f"visual block must be {(params.n_rays, 2)}, got {visual.shape}")
    if exit_rel.shape != (2, 2):
        raise ValueError(f"exit block must be (2, 2), got {exit_rel.shape}")
    return np.concatenate([vel, social.ravel(), visual.ravel(), exit_rel.ravel()])


def extract_step(position, velocity, others_pos, others_vel, walls,
                 exit_segment, params: ExtractionParams) -> np.ndarray:
    """One pedestrian-step feature vector of length params.feature_dim."""
    social = extract_social(position, velocity, others_pos, others_vel, walls, params)
    visual = extract_visual(position, walls, params)
    exit_rel = extract_exit(position, exit_segment)
    return assemble_step(velocity, social, visual, exit_rel, params)


def velocity_at(traj, step: int) -> np.ndarray:
    """A `Trajectory`'s velocity at a local step; the undefined first step
    reads as zero."""
    if step == 0:
        return np.zeros(2)
    return traj.velocities[step]


def stack_window(steps) -> np.ndarray:
    """Stack per-step feature vectors into a (w, feature_dim) window."""
    arr = np.asarray(steps, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a list of equal-length step vectors, got shape {arr.shape}")
    return arr


def samples_to_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into (n, w, d) inputs and (n, 2) targets."""
    if not samples:
        raise ValueError("no samples")
    x = np.stack([s.X for s in samples]).astype(float)
    y = np.stack([s.target for s in samples]).astype(float)
    return x, y


def dilated_causal_conv(z, f, q: int, h: int) -> np.ndarray:
    """Plain dilated causal convolution per the defining sum.

    out[e] = sum_{u=0}^{q-1} f[u] * z[e - h*u], with out-of-range samples
    reading as zero so input and output lengths match.  z may be (L,) for
    scalar channels or (L, C); f is (q,) or (q, C) accordingly.
    """
    z = np.asarray(z, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape[0] != q:
        raise ValueError(f"filter length {f.shape[0]} != q={q}")
    if h < 1:
        raise ValueError("dilation must be positive")
    scalar = z.ndim == 1
    z2 = z[:, None] if scalar else z
    f2 = f[:, None] if f.ndim == 1 else f
    L = z2.shape[0]
    out = np.zeros(L)
    for u in range(q):
        shift = h * u
        if shift >= L:
            break
        contrib = (z2[: L - shift] * f2[u][None, :]).sum(axis=1)
        out[shift:] += contrib
    return out


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


class DequeWindowSimulator(Simulator):
    """`Simulator` keeping each pedestrian's last w feature rows in its own
    deque, appended once per step and stacked for the predictor; a step's
    rewrites replace deque entries, window[-1] being the step's own row."""

    def __init__(self, config, predictor):
        super().__init__(config, predictor)
        for ped in self._peds:
            ped.window = deque(maxlen=config.params.window)

    def _windows(self, active, moved, snap, t):
        for ped, feats in zip(active, self._step_features(active, snap)):
            ped.window.append(feats.copy())   # a view would keep the whole batch alive
        if not moved:
            return None
        rows = np.stack([row for ped in moved for row in ped.window])
        return rows.reshape(len(moved), -1, rows.shape[1])

    def _flush_rewrites(self):
        if not self._rewrites:
            return
        _, _, pos, vel, table_rows = zip(*self._rewrites)
        rows = extract_batch(np.concatenate(pos), np.concatenate(vel),
                             np.concatenate(table_rows), self.config.scene, self.config.params,
                             groups=np.repeat(np.arange(len(pos)), [len(p) for p in pos]))
        t = self.step_index
        for (ped, s, *_), row in zip(self._rewrites, rows):
            ped.window[s - t - 1] = row.copy()
        self._rewrites.clear()

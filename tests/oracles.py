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
  `point_in_modules` (`geometry.containing_rows` as module ids, which
  `ListSimulator` reads; `geometry.point_in_module` is its one-point
  view);
* `desired_direction`: `social_force.desired_directions`, bit for bit;
* `wall_points_in_disk`, `extract_social`, `extract_visual`,
  `extract_exit`, `assemble_step` and `extract_step`:
  `features.extract_batch` (`_wall_points_batch`, `_visual_batch`), bit
  for bit;
* `dilated_causal_conv`: `network._WeightNormConv.forward`, to 1e-12;
* `samples_to_arrays`: `ingest.Windows`, whose batches equal its stacked
  arrays at the same indices, bit for bit;
* `snap_to_module` (one point against every boundary edge):
  `simulate.snap_to_modules`, bit for bit, ties to the earlier module
  included;
* `DequeWindowSimulator` (each pedestrian's feature window in its own
  deque, stacked for the predictor, and its own deque of step snapshots,
  `_Snapshot`s with one id dict each; every rewrite row is extracted
  against a copy of its step's snapshot): `simulate.Simulator`'s window
  ring and state ring, whose predictor inputs equal the stacked deques
  byte for byte;
* `ListSimulator` and `ListSocialForceSimulator` (the per-pedestrian
  bookkeeping `Simulator` had before its slot arrays: one `_PedRuntime`
  record of lists per pedestrian, commits, snaps and appends one
  pedestrian at a time): `simulate.Simulator` and
  `social_force._SocialForceSimulator`, whose runs equal theirs byte for
  byte.

`active_exit`, `point_segment_distance`, `rect_contains`, `velocity_at`,
`stack_window`, `snapshot_others`, `Sample` with `sampleset_getitem` and
`sampleset_iter` (a `SampleSet` as `Sample`s), `neighbour_table` (the
force law's operands for one subject), and `StubPredictor` (whose identity
`encode` the model stubs inherit) with the two velocity stubs are small
helpers that tests build their cases with.  The module is not
collected by pytest (its name does not start with "test_"); tests import
it as a sibling module, and `test_oracles.py` keeps these names out of
the package, its classes included; a helper named `<class>_<name>` is
also kept from returning as method `<name>` or `__<name>__` of that class
(`snapshot_others` was `_Snapshot.others`, from when `_Snapshot` was the
package's, and `sampleset_iter` was `SampleSet.__iter__`).
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
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
    containing_rows,
    first_wall_crossings,
    polygon_edges,
    project_on_segments,
    rect_mask,
    segment_terms,
)
from crowdsim.simulate import (
    JUNCTION_SNAP,
    MIN_GUIDED_SPEED,
    WALL_CLEARANCE,
    PedestrianSeed,
    SimulatedTrajectory,
    SimulationResult,
    Simulator,
)
from crowdsim.social_force import desired_directions, sf_acceleration, shrunk_exit


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


def point_in_modules(scene: Scene, points) -> list[Optional[str]]:
    """Id of the first module, in traversal order, whose boundary polygon
    contains each point (k, 2), else None: one entry per point."""
    ids = [m.id for m in scene.modules] + [None]
    return [ids[i] for i in containing_rows(scene, points).tolist()]


def snapshot_others(snap, ped_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of every pedestrian of a `_Snapshot`
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


@dataclass(frozen=True)
class Sample:
    """One training sample: a feature window and the next-step velocity."""

    X: np.ndarray               # (w, feature_dim)
    target: np.ndarray          # (2,)
    meta: tuple[str, str, int]  # (run name, ped_id, local step t)


def sampleset_getitem(samples, i: int) -> Sample:
    """Sample i of an `ingest.SampleSet`."""
    return Sample(X=samples.windows[i], target=samples.targets[i], meta=samples.meta[i])


def sampleset_iter(samples):
    """The `Sample`s of an `ingest.SampleSet`, in order."""
    return (sampleset_getitem(samples, i) for i in range(len(samples)))


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


def neighbour_table(pos, vel, wall_points, params):
    """The force law's table for a subject in the crowd pos, vel (N, 2)
    with its wall points (m, 2): positions, velocities (zero for a wall),
    reaches (2r, then r) and the crowd size N, as `sf_acceleration` takes
    them after the subject's index."""
    pos = np.asarray(pos, dtype=float).reshape(-1, 2)
    points = np.asarray(wall_points, dtype=float).reshape(-1, 2)
    return (np.concatenate((pos, points)),
            np.concatenate((np.asarray(vel, dtype=float).reshape(-1, 2), np.zeros_like(points))),
            np.concatenate((np.full(len(pos), 2.0 * params.radius),
                            np.full(len(points), params.radius))),
            len(pos))


class StubPredictor:
    """Base of the model stubs: `encode` keeps each feature row as it is,
    so `predict` reads windows of feature rows."""

    def encode(self, rows: np.ndarray) -> np.ndarray:
        return rows


class ConstantVelocityOracle(StubPredictor):
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
class _Snapshot:
    """Positions and velocities of the active pedestrians at one step, in id order."""

    index: dict[str, int]
    pos: np.ndarray             # (N, 2)
    vel: np.ndarray             # (N, 2)


class DequeWindowSimulator(Simulator):
    """`Simulator` keeping each pedestrian's last w feature rows in its own
    deque, appended once per step and stacked for the predictor; a step's
    rewrites replace deque entries, window[-1] being the step's own row.

    It records its own snapshot of every step (positions and velocities as
    recorded then, with an id dict) and extracts each queued rewrite row
    against a copy of its step's snapshot with the subject's rewritten
    state, so it never reads the state ring it checks."""

    def __init__(self, config, predictor):
        super().__init__(config, predictor)
        self._deques = [deque(maxlen=config.params.window) for _ in self._ids]
        self._snapshots = deque(maxlen=config.params.window)

    def _windows(self, active, moved, pos, vel, t):
        snap = _Snapshot(index={self._ids[slot]: i for i, slot in enumerate(active)},
                         pos=self._pos[active, t], vel=self._vel[active, t])
        self._snapshots.append((t, snap))
        rows = self.predictor.encode(self._step_features(active, snap.pos, snap.vel))
        for slot, feats in zip(active, rows):
            self._deques[slot].append(feats.copy())   # a view would keep the whole batch alive
        if not moved.any():
            return None
        rows = np.stack([row for slot in active[moved] for row in self._deques[slot]])
        return rows.reshape(int(moved.sum()), -1, rows.shape[1])

    def _rewrite_window(self, slot, s, t):
        """Step s's snapshot, copied, with the subject's rewritten state and
        the wall-table row of its module at step t, when it reset."""
        snap = dict(self._snapshots)[s]
        i = snap.index[self._ids[slot]]
        pos, vel = snap.pos.copy(), snap.vel.copy()
        pos[i] = self._pos[slot, s]
        vel[i] = self._vel[slot, s]
        rows = np.full(len(pos), -1)
        rows[i] = self._row[slot, t]
        return pos, vel, rows

    def _flush_rewrites(self):
        if not self._rewrites:
            return
        t = self.step_index
        queued = [(slot, s) for slot, s, *_ in self._rewrites]
        pos, vel, table_rows = zip(*(self._rewrite_window(slot, s, t) for slot, s in queued))
        rows = extract_batch(np.concatenate(pos), np.concatenate(vel),
                             np.concatenate(table_rows), self.config.scene, self.config.params,
                             groups=np.repeat(np.arange(len(pos)), [len(p) for p in pos]))
        for (slot, s), row in zip(queued, self.predictor.encode(rows)):
            self._deques[slot][s - t - 1] = row.copy()
        self._rewrites.clear()


@dataclass
class _PedRuntime:
    """Pending until its first position is recorded, active until it exits."""

    seed: PedestrianSeed
    slot: int                               # index in ListSimulator._peds, row of its rings
    positions: list = field(default_factory=list)
    velocities: list = field(default_factory=list)
    modules: list = field(default_factory=list)
    reset_flags: list = field(default_factory=list)
    exited: bool = False
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

class ListSimulator(Simulator):
    """`Simulator` with the per-pedestrian bookkeeping it had before its
    slot arrays, kept verbatim: one `_PedRuntime` per pedestrian with list
    histories, the active and moved sets as lists, one commit, snap and
    append per pedestrian in Python, and `snap_to_module` per unfound
    proposal.  Only `__init__` differs: the package's sets up the rings
    and the tables these methods read, and this one adds the records.  The
    package's slot arrays stay as `__init__` made them."""

    def __init__(self, config, predictor):
        super().__init__(config, predictor)
        self._peds = [_PedRuntime(seed=s, slot=i) for i, s in
                      enumerate(sorted(config.pedestrians, key=lambda s: s.ped_id))]
        self._rows = {m.id: row for row, m in enumerate(config.scene.modules)}
        # who was active at step s, at [slot, s % w]: the record that
        # Simulator derives from its slots' entry steps and lengths
        self._recorded = np.zeros((len(self._peds), config.params.window), dtype=bool)

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

        pos = np.array([p.positions[-1] for p in active])
        vel = np.array([p.velocities[-1] for p in active])
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
        self._propose(active, moved, pos, vel, t)
        # the wall guard; the exit and module tests below read its results
        table = self._wall_table[0]
        for ped, idx in zip(moved, self._crossings(moved, *self._wall_table)):
            if idx >= 0:
                ped._proposal = self._blocked(ped, table[self._rows[ped.module_id], idx], t)[0]
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

    def _propose(self, active: list, moved: list, pos: np.ndarray, vel: np.ndarray,
                 t: int) -> None:
        """Set _proposal for every pedestrian past its seeded prefix (moved),
        and _velocity where the model has one to record with it; pos and vel
        (N, 2) are the active pedestrians' states at step t.

        The TCN reads each active pedestrian's feature window and predicts
        one velocity per moved pedestrian.
        """
        cfg = self.config
        x = self._windows(active, moved, pos, vel, t)
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
            table, valid = self._wall_table
            row = self._rows[ped.module_id]
            walls = table[row, valid[row]]
            _, gaps = closest_points_on_segments(ped.positions[-1], walls[:, 0], walls[:, 1])
            wall = walls[int(np.argmin(gaps))]
        self._reset(ped, wall, t)
        return np.asarray(ped._proposal, dtype=float), None

    def _windows(self, active: list, moved: list, pos: np.ndarray, vel: np.ndarray,
                 t: int) -> np.ndarray:
        """Write the step's feature rows into the ring and its states into
        the state ring with one scatter each, and gather the moved
        pedestrians' windows (n, w, D) with one gather: steps t-w+1 .. t,
        oldest first."""
        w = self.config.params.window
        slots = np.array([p.slot for p in active])
        self._store(slots, t % w, self._step_features(active, pos, vel))
        self._recorded[:, t % w] = False
        self._recorded[slots, t % w] = True
        self._states[slots, t % w] = np.stack((pos, vel), axis=1)
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

    def _step_features(self, active: list, pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """Feature rows of the active pedestrians at states pos, vel, (N, D)."""
        return extract_batch(pos, vel, [self._rows[p.module_id] for p in active],
                             self.config.scene, self.config.params)

    def run(self) -> SimulationResult:
        while self.step_index < self.config.max_steps and (
                self._active() or self._has_pending()):
            self.step()
        trajectories = []
        for ped in self._peds:
            if not ped.positions:
                continue
            trajectories.append(SimulatedTrajectory(
                ped_id=ped.ped_id, steps=ped.entry + np.arange(len(ped.positions)),
                dt=self.config.dt, positions=np.asarray(ped.positions, dtype=float),
                module_ids=tuple(ped.modules),
                reset_flags=np.asarray(ped.reset_flags, dtype=bool),
                exited=ped.exited,
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

        row = self._rows[ped.module_id]
        for j, s in enumerate(steps):
            i = s - ped.entry
            ped.positions[i] = guided[j].copy()
            ped.velocities[i] = ((guided[0] - prev) / dt if j == 0 else step_vel.copy())
            ped.reset_flags[i] = True
            self._rewrites.append((ped.slot, s, row, ped.positions[i], ped.velocities[i]))

        nxt = p_hat + direction * speed * dt
        if speed > 0.0 and self._module_crossings(ped.module_id, p_hat, nxt)[0] >= 0:
            nxt = p_hat.copy()
        ped._proposal = nxt

    def _flush_rewrites(self) -> None:
        """Extract every queued rewrite row in one call and write them into
        the ring with one scatter.

        Row k is step s_k's recorded states of everyone active then (one
        gather from the state ring), with the subject's rewritten state and
        current module; the rows are extract_batch's groups.  Windows are
        read only in _propose, so a flush after the step's commits gives
        the rows an immediate extraction would."""
        if not self._rewrites:
            return
        slots, steps, rows, pos, vel = map(np.array, zip(*self._rewrites))
        cols = steps % self.config.params.window
        group, entry = np.nonzero(self._recorded[:, cols].T)
        states = self._states[entry, cols[group]]
        subject = entry == slots[group]
        states[subject] = np.stack((pos, vel), axis=1)
        self._store(slots, cols, extract_batch(
            states[:, 0], states[:, 1], np.where(subject, rows[group], -1),
            self.config.scene, self.config.params, groups=group))
        self._rewrites.clear()


class ListSocialForceSimulator(ListSimulator):
    """`social_force._SocialForceSimulator` as it was before the slot
    arrays, verbatim, on `ListSimulator`'s bookkeeping: one `_proposal`
    and `_velocity` per moved pedestrian, and one `_hold` per blocked
    move."""

    def __init__(self, config, params, desired_speeds):
        super().__init__(config, predictor=None)
        self.sf_params = params
        # per slot: desired speed, and last desired direction (+x before the first)
        self._speeds = np.array([desired_speeds[p.ped_id] for p in self._peds], dtype=float)
        self._directions = np.tile((1.0, 0.0), (len(self._peds), 1))
        # per module, in Scene.wall_table's row order: shrunk exit, wall
        # terms (padded) and active wall count
        self._targets = np.stack([shrunk_exit(m.exit, params.radius)
                                  for m in config.scene.modules])
        table, valid = self._wall_table
        self._wall_terms = segment_terms(table[:, :, 0], table[:, :, 1])
        self._wall_counts = valid.sum(axis=1)

    def _propose(self, active, moved, pos, vel, t) -> None:
        """One force-law step per moved pedestrian; no features, no network."""
        if not moved:
            return
        dt = self.config.dt
        index = np.flatnonzero([ped._predicted for ped in active])
        slots = np.array([ped.slot for ped in moved])
        rows = np.array([self._rows[ped.module_id] for ped in moved])
        p, v = pos[index], vel[index]
        directions = desired_directions(p, self._targets[rows], self._directions[slots])
        self._directions[slots] = directions
        # every subject's closest points on its module's padded walls (m, W, 2)
        a, ab, len2 = self._wall_terms
        points = project_on_segments(p[:, None], a[rows], ab[rows], len2[rows])
        acc = np.empty((len(moved), 2))
        for i, (speed, e, count) in enumerate(zip(self._speeds[slots].tolist(), directions,
                                                   self._wall_counts[rows].tolist())):
            acc[i] = sf_acceleration(index[i], *neighbour_table(pos, vel, points[i, :count],
                                                                self.sf_params),
                                     speed, e, self.sf_params)
        v_new = v + acc * dt
        for ped, nxt, v_next in zip(moved, p + v_new * dt, v_new):
            ped._proposal, ped._velocity = nxt, v_next

    def _blocked(self, ped, wall, t):
        """Social force holds every blocked move."""
        return self._hold(ped)

"""Scalar references of the package's batched kernels, used only by tests.

Each function here computes one pedestrian, one ray or one point the plain
way, and the tests hold a batched kernel of `crowdsim` to it:

* `ray_cast` and `ray_cast_batch`: `geometry.ray_distances`;
* `wall_points_in_disk`, `extract_social`, `extract_visual`,
  `extract_exit`, `assemble_step` and `extract_step`:
  `features.extract_batch` (`_wall_points_batch`, `_visual_batch`), bit
  for bit;
* `dilated_causal_conv`: `network._WeightNormConv.forward`, to 1e-12;
* `samples_to_arrays`: `ingest.Windows`, whose batches equal its stacked
  arrays at the same indices, bit for bit.

`point_segment_distance`, `rect_contains`, `stack_window` and the two
velocity stubs are small helpers that tests build their cases with.  The
module is not collected by pytest (its name does not start with "test_");
tests import it as a sibling module, and `test_oracles.py` keeps these
names out of the package.
"""
from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from crowdsim.features import TWO_PI, ExtractionParams, _ordered_exit, _sector_of
from crowdsim.geometry import (
    GEOM_EPS,
    Point2,
    _as_walls,
    closest_point_on_segment,
    ray_distances,
    rect_mask,
)


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
    out_t = ray_distances(o, d, seg).min(axis=1)
    with np.errstate(invalid="ignore"):
        pts = o[None, :] + out_t[:, None] * d
    pts[~np.isfinite(out_t)] = np.nan
    return out_t, pts


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
    t_hit = ray_distances(pos, np.stack([np.cos(bounds), np.sin(bounds)], axis=1), seg,
                          collinear=False)                      # (n_sectors, m)
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

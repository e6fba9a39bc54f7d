"""Geometric input features for the velocity predictor.

Per pedestrian and time step the feature vector concatenates:

* own velocity (2 entries),
* one row per angular sector of a perception disk: relative position and
  relative velocity of the nearest entity in that sector (4 * n_sectors),
* one row per vision ray: relative position of the nearest wall hit, or a
  point at the vision range when the sight is unobstructed (2 * n_rays),
* relative positions of the two exit endpoints (4 entries).

Angles are measured from the positive x axis; sectors are half-open
[j*alpha, (j+1)*alpha).  Walls and virtual entities are static, so their
relative velocity is minus the subject's velocity.

`extract_batch` builds many pedestrians' vectors in one call and is the only
feature code that ingest and simulate run.  Its entries may come from
several snapshots (group ids): a subject's neighbours are the other entries
of its group only, so one call can serve many frames of a recording or all
of a simulation step's history rewrites.  The scalar reference it equals
row by row, `extract_step` (one pedestrian's vector), lives with the tests
in `tests/oracles.py`.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .geometry import GEOM_EPS, active_exit, active_walls, ray_distances

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ExtractionParams:
    """Tunable knobs of the feature extractor."""

    radius: float = 1.2        # perception disk radius, metres
    sector_deg: float = 18.0   # angular sector width (alpha), degrees
    ray_deg: float = 10.0      # vision ray spacing (beta), degrees
    vision_range: float = 20.0 # fallback sight distance (D_e), metres
    window: int = 8            # time steps per input window (w)

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.vision_range <= 0:
            raise ValueError("vision_range must be positive")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        for name, deg in (("sector_deg", self.sector_deg), ("ray_deg", self.ray_deg)):
            if deg <= 0 or abs(360.0 / deg - round(360.0 / deg)) > 1e-9:
                raise ValueError(f"{name} must divide 360 evenly, got {deg}")

    @property
    def n_sectors(self) -> int:
        return round(360.0 / self.sector_deg)

    @property
    def n_rays(self) -> int:
        return round(360.0 / self.ray_deg)

    @property
    def feature_dim(self) -> int:
        return 2 + 4 * self.n_sectors + 2 * self.n_rays + 4

    def to_dict(self) -> dict:
        return asdict(self)


def _sector_of(angles: np.ndarray, n_sectors: int) -> np.ndarray:
    """Half-open sector index for angles in radians (any range)."""
    width = TWO_PI / n_sectors
    idx = np.floor(np.mod(angles, TWO_PI) / width).astype(int)
    return np.mod(idx, n_sectors)


def _ordered_exit(exit_segment) -> np.ndarray:
    """Exit endpoints ordered by (x, then y), so the row order does not depend
    on the subject's position."""
    ex = np.asarray(exit_segment, dtype=float).reshape(2, 2)
    if (ex[0, 0], ex[0, 1]) > (ex[1, 0], ex[1, 1]):
        ex = ex[::-1]
    return ex


def _group_pairs(subjects: np.ndarray, groups: np.ndarray):
    """(i, j) for every subject row i (subjects indexes the entries) and
    every entry j of its group, the subject's own entry included; j runs in
    entry order within each subject."""
    order = np.argsort(groups, kind="stable")           # groups contiguous, order kept
    ids, first, size = np.unique(groups[order], return_index=True, return_counts=True)
    k = np.searchsorted(ids, groups[subjects])
    size, first = size[k], first[k]
    i = np.repeat(np.arange(subjects.size), size)
    within = np.arange(i.size) - np.repeat(np.cumsum(size) - size, size)
    return i, order[np.repeat(first, size) + within]


def _nearest_pedestrians(pos: np.ndarray, vel: np.ndarray, subjects: np.ndarray,
                         groups: np.ndarray, params: ExtractionParams):
    """Per subject (the rows of pos that subjects indexes) and sector, the
    nearest other pedestrian of its group in the disk.

    Returns (dist, position, velocity) of shapes (n, S), (n, S, 2) and
    (n, S, 2); +inf and zeros where a sector holds nobody.  Distance ties
    go to the lower index; a pedestrian within GEOM_EPS goes to sector 0.
    """
    n, ns = subjects.size, params.n_sectors
    i, j = _group_pairs(subjects, groups)
    own = subjects[i]
    rel = np.take(pos, j, axis=0) - np.take(pos, own, axis=0)  # p_j - p_subjects[i]
    d = np.linalg.norm(rel, axis=-1)
    near = (d <= params.radius) & (j != own)
    i, j, rel, d = i[near], j[near], rel[near], d[near]
    sec = _sector_of(np.arctan2(rel[:, 1], rel[:, 0]), ns)
    sec = np.where(d <= GEOM_EPS, 0, sec)
    order = np.lexsort((j, d, sec, i))
    i, j, d, sec = i[order], j[order], d[order], sec[order]
    first = np.ones(i.size, dtype=bool)         # nearest of each (subject, sector)
    first[1:] = (i[1:] != i[:-1]) | (sec[1:] != sec[:-1])
    i, j, d, sec = i[first], j[first], d[first], sec[first]
    dist = np.full((n, ns), np.inf)
    near_pos = np.zeros((n, ns, 2))
    near_vel = np.zeros((n, ns, 2))
    dist[i, sec] = d
    near_pos[i, sec] = pos[j]
    near_vel[i, sec] = vel[j]
    return dist, near_pos, near_vel


def _wall_points_batch(pos: np.ndarray, seg: np.ndarray, radius: float, n_sectors: int):
    """`wall_points_in_disk` (tests/oracles.py) for every subject of pos (g, 2)
    against one wall set.

    Each wedge takes the nearest of its candidates, laid out per subject and
    sector as [projections, first endpoints, second endpoints, hits on the
    wedge's own boundary ray, hits on the next boundary ray], m each.  That
    is the scalar code's concatenation order, so argmin's first-minimum rule
    breaks distance ties the way its stable sort does.
    """
    g, m = pos.shape[0], seg.shape[0]
    dists = np.full((g, n_sectors), np.inf)
    points = np.full((g, n_sectors, 2), np.nan)
    if m == 0 or g == 0:
        return dists, points
    a = seg[:, 0, :]
    b = seg[:, 1, :]
    ab = b - a
    len2 = np.maximum(np.einsum("md,md->m", ab, ab), GEOM_EPS**2)
    wedge = np.arange(n_sectors)[None, :, None]                 # (1, S, 1)

    tproj = np.clip(((pos[:, None, :] - a) * ab).sum(axis=-1) / len2, 0.0, 1.0)
    proj = a + tproj[..., None] * ab                            # (g, m, 2)
    rel = proj - pos[:, None, :]
    d_proj = np.linalg.norm(rel, axis=-1)
    sec = _sector_of(np.arctan2(rel[..., 1], rel[..., 0]), n_sectors)
    keep = d_proj <= radius
    # A projection collapsing onto the subject belongs to every wedge.
    on_subject = (keep & (d_proj <= GEOM_EPS))[:, None, :]
    ok_proj = (keep[:, None, :] & (sec[:, None, :] == wedge)) | on_subject
    cand_d = [np.where(ok_proj, d_proj[:, None, :], np.inf)]

    for pts in (a, b):
        rel = pts[None, :, :] - pos[:, None, :]
        d = np.linalg.norm(rel, axis=-1)
        sec = _sector_of(np.arctan2(rel[..., 1], rel[..., 0]), n_sectors)
        ok = ((d <= radius) & (d > GEOM_EPS))[:, None, :] & (sec[:, None, :] == wedge)
        cand_d.append(np.where(ok, d[:, None, :], np.inf))

    bounds = np.arange(n_sectors) * (TWO_PI / n_sectors)
    u = np.stack([np.cos(bounds), np.sin(bounds)], axis=1)
    t_hit = ray_distances(pos, u, seg, collinear=False)         # (g, S, m)
    t_hit = np.where(t_hit <= radius, t_hit, np.inf)
    cand_d += [t_hit, np.roll(t_hit, -1, axis=1)]   # a boundary ray serves both wedges

    cand_d = np.concatenate(cand_d, axis=2)                     # (g, S, 5m)
    best = np.argmin(cand_d, axis=2)                            # (g, S)
    dist = np.take_along_axis(cand_d, best[..., None], axis=2)[..., 0]
    found = np.isfinite(dist)
    rows, sectors = np.nonzero(found)
    block, j = np.divmod(best[found], m)
    dist = dist[found]
    choices = np.stack([proj[rows, j], a[j], b[j],
                        pos[rows] + dist[:, None] * u[sectors],
                        pos[rows] + dist[:, None] * u[(sectors + 1) % n_sectors]])
    dists[found] = dist
    points[found] = choices[block, np.arange(block.size)]
    return dists, points


def _visual_batch(pos: np.ndarray, seg: np.ndarray, params: ExtractionParams) -> np.ndarray:
    """`extract_visual` (tests/oracles.py) for every subject of pos (g, 2),
    shape (g, n_rays, 2)."""
    n = params.n_rays
    angles = np.arange(n) * (TWO_PI / n)
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if seg.shape[0]:
        t = ray_distances(pos, u, seg).min(axis=2)              # (g, n_rays)
    else:
        t = np.full((pos.shape[0], n), np.inf)
    miss = ~np.isfinite(t)
    with np.errstate(invalid="ignore"):
        pts = pos[:, None, :] + t[..., None] * u
    pts[miss] = (pos[:, None, :] + params.vision_range * u)[miss]
    return pts - pos[:, None, :]


def extract_batch(pos, vel, module_ids, scene, params: ExtractionParams,
                  groups=None) -> np.ndarray:
    """Feature rows against one or more snapshots, shape (n, feature_dim).

    groups gives each entry a snapshot id (None: one snapshot).  Each entry
    with a module gets a row, in order, equal bit for bit to the reference
    `extract_step` (tests/oracles.py) of that pedestrian with the other
    entries of its group (in order) as its neighbours and the walls and exit
    of its module.  An entry whose module id is None is a neighbour only and
    gets no row.  Pairs are built only within groups, so memory grows with
    subjects times group size.
    """
    pos = np.asarray(pos, dtype=float).reshape(-1, 2)
    vel = np.asarray(vel, dtype=float).reshape(-1, 2)
    groups = np.zeros(len(pos), dtype=int) if groups is None else np.asarray(groups)
    subjects = np.array([i for i, m in enumerate(module_ids) if m is not None], dtype=int)
    n, ns, nr = subjects.size, params.n_sectors, params.n_rays
    best_dist, best_pos, best_vel = _nearest_pedestrians(pos, vel, subjects, groups, params)
    pos, vel = pos[subjects], vel[subjects]
    visual = np.empty((n, nr, 2))
    exit_rel = np.empty((n, 2, 2))

    by_module: dict[str, list[int]] = {}
    for row, i in enumerate(subjects):
        by_module.setdefault(module_ids[i], []).append(row)
    for module_id, idx in by_module.items():
        idx = np.asarray(idx)
        walls = active_walls(scene, module_id)
        wd, wp = _wall_points_batch(pos[idx], walls, params.radius, ns)
        wall_wins = wd < best_dist[idx]             # pedestrians win exact ties
        best_dist[idx] = np.where(wall_wins, wd, best_dist[idx])
        best_pos[idx] = np.where(wall_wins[..., None], wp, best_pos[idx])
        best_vel[idx] = np.where(wall_wins[..., None], 0.0, best_vel[idx])
        visual[idx] = _visual_batch(pos[idx], walls, params)
        exit_rel[idx] = _ordered_exit(active_exit(scene, module_id))[None] - pos[idx, None, :]

    empty = ~np.isfinite(best_dist)
    mid = (np.arange(ns) + 0.5) * (TWO_PI / ns)
    rim = pos[:, None, :] + params.radius * np.stack([np.cos(mid), np.sin(mid)], axis=1)
    best_pos[empty] = rim[empty]
    best_vel[empty] = 0.0
    social = np.concatenate([best_pos - pos[:, None, :], best_vel - vel[:, None, :]], axis=2)
    return np.concatenate([vel, social.reshape(n, 4 * ns), visual.reshape(n, 2 * nr),
                           exit_rel.reshape(n, 4)], axis=1)

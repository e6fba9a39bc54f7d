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
of a simulation step's history rewrites.  Subjects of every module go
through one pass, each against its module's walls in the scene's padded
`Scene.wall_table`.  The scalar reference it equals
row by row, `extract_step` (one pedestrian's vector), lives with the tests
in `tests/oracles.py`.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .geometry import GEOM_EPS, ray_distances

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
    x, y = pos[:, 0], pos[:, 1]
    relx, rely = x[j] - x[own], y[j] - y[own]                  # p_j - p_subjects[i]
    d = np.sqrt(relx * relx + rely * rely)
    near = (d <= params.radius) & (j != own)
    i, j, relx, rely, d = i[near], j[near], relx[near], rely[near], d[near]
    sec = _sector_of(np.arctan2(rely, relx), ns)
    sec = np.where(d <= GEOM_EPS, 0, sec)
    # The pairs come subject by subject, in entry order, and lexsort is
    # stable: equal (subject, sector, distance) keys stay in j order.
    order = np.lexsort((d, sec, i))
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


def _wall_points_batch(pos: np.ndarray, table: np.ndarray, valid: np.ndarray,
                       rows: np.ndarray, radius: float, n_sectors: int):
    """`wall_points_in_disk` (tests/oracles.py) for every subject of pos
    (g, 2) against its own wall set: the valid walls of table row rows[i]
    (see `ray_distances`).

    Each wedge takes the nearest of its candidates, laid out per subject and
    sector as [projections, first endpoints, second endpoints, hits on the
    wedge's own boundary ray, hits on the next boundary ray], m each.  That
    is the scalar code's concatenation order, so argmin's first-minimum rule
    breaks distance ties the way its stable sort does; padded walls, which
    sit after a subject's own, are never candidates.  A projection or
    endpoint lies in one wedge, so those candidates are scattered into
    place; the arithmetic runs on x and y arrays of shape (g, m).
    """
    g, m = len(rows), valid.shape[1]
    dists = np.full((g, n_sectors), np.inf)
    points = np.full((g, n_sectors, 2), np.nan)
    if m == 0 or g == 0:
        return dists, points
    px, py = pos[:, :1], pos[:, 1:]                             # (g, 1)
    # Per subject and wall: projection, first and second endpoint.
    x, y = np.empty((3, g, m)), np.empty((3, g, m))
    x[1:] = table[rows, :, :, 0].transpose(2, 0, 1)
    y[1:] = table[rows, :, :, 1].transpose(2, 0, 1)
    abx, aby = x[2] - x[1], y[2] - y[1]
    len2 = np.maximum(abx * abx + aby * aby, GEOM_EPS**2)
    tproj = np.clip(((px - x[1]) * abx + (py - y[1]) * aby) / len2, 0.0, 1.0)
    x[0], y[0] = x[1] + tproj * abx, y[1] + tproj * aby
    relx, rely = x - px, y - py
    d = np.sqrt(relx * relx + rely * rely)
    sec = _sector_of(np.arctan2(rely, relx), n_sectors)
    ok = (d <= radius) & valid[rows]
    near = d <= GEOM_EPS

    cand = np.full((g, n_sectors, 5, m), np.inf)
    # A projection collapsing onto the subject belongs to every wedge, and
    # an endpoint there to none.
    i, j = np.nonzero(ok[0] & near[0])
    cand[i, :, 0, j] = d[0, i, j, None]
    ok[1:] &= ~near[1:]
    block, i, j = np.nonzero(ok)
    cand[i, sec[block, i, j], block, j] = d[block, i, j]

    bounds = np.arange(n_sectors) * (TWO_PI / n_sectors)
    ux, uy = np.cos(bounds), np.sin(bounds)
    hit = ray_distances(pos, np.stack([ux, uy], axis=1), table, valid, rows,
                        collinear=False)                        # (g, m, S)
    hit[hit > radius] = np.inf
    cand[:, :, 3] = hit.transpose(0, 2, 1)
    cand[:, :-1, 4] = cand[:, 1:, 3]    # a boundary ray serves both wedges
    cand[:, -1, 4] = cand[:, 0, 3]

    cand = cand.reshape(g, n_sectors, 5 * m)
    best = np.argmin(cand, axis=2)                              # (g, S)
    dist = np.take_along_axis(cand, best[..., None], axis=2)[..., 0]
    found = np.isfinite(dist)
    i, sectors = np.nonzero(found)
    block, j = np.divmod(best[found], m)
    dist = dist[found]
    ray = block >= 3
    k = (sectors + (block == 4)) % n_sectors
    fixed = np.minimum(block, 2)
    dists[found] = dist
    points[i, sectors, 0] = np.where(ray, px[i, 0] + dist * ux[k], x[fixed, i, j])
    points[i, sectors, 1] = np.where(ray, py[i, 0] + dist * uy[k], y[fixed, i, j])
    return dists, points


def _visual_batch(pos: np.ndarray, table: np.ndarray, valid: np.ndarray,
                  rows: np.ndarray, params: ExtractionParams) -> np.ndarray:
    """`extract_visual` (tests/oracles.py) for every subject of pos (g, 2)
    against its own wall set (see `ray_distances`), shape (g, n_rays, 2).

    A ray's nearest hit is a running `np.minimum` over the walls, which is
    exact: no distance is NaN."""
    n = params.n_rays
    angles = np.arange(n) * (TWO_PI / n)
    ux, uy = np.cos(angles), np.sin(angles)
    hits = ray_distances(pos, np.stack([ux, uy], axis=1), table, valid, rows)  # (g, m, n)
    t = np.full((len(rows), n), np.inf)
    for wall in range(hits.shape[1]):
        np.minimum(t, hits[:, wall], out=t)
    t[t == np.inf] = params.vision_range                       # unobstructed sight
    px, py = pos[:, :1], pos[:, 1:]
    out = np.empty((len(rows), n, 2))
    np.subtract(px + t * ux, px, out=out[..., 0])
    np.subtract(py + t * uy, py, out=out[..., 1])
    return out


def extract_batch(pos, vel, rows, scene, params: ExtractionParams,
                  groups=None) -> np.ndarray:
    """Feature rows against one or more snapshots, shape (n, feature_dim).

    rows gives each entry its module's `Scene.wall_table` row, or -1 for a
    neighbour only; groups gives each entry a snapshot id (None: one
    snapshot).  Each entry with a row gets a feature row, in order, equal
    bit for bit to the reference `extract_step` (tests/oracles.py) of that
    pedestrian with the other entries of its group (in order) as its
    neighbours and the walls and exit of its module.  Pairs are built only
    within groups, so memory grows with subjects times group size.
    """
    pos = np.asarray(pos, dtype=float).reshape(-1, 2)
    vel = np.asarray(vel, dtype=float).reshape(-1, 2)
    rows = np.asarray(rows, dtype=int).reshape(-1)
    groups = np.zeros(len(pos), dtype=int) if groups is None else np.asarray(groups)
    subjects = np.flatnonzero(rows >= 0)
    n, ns, nr = subjects.size, params.n_sectors, params.n_rays
    best_dist, best_pos, best_vel = _nearest_pedestrians(pos, vel, subjects, groups, params)
    pos, vel, row = pos[subjects], vel[subjects], rows[subjects]
    _, table, valid = scene.wall_table

    wd, wp = _wall_points_batch(pos, table, valid, row, params.radius, ns)
    wall_wins = wd < best_dist                  # pedestrians win exact ties
    best_dist = np.where(wall_wins, wd, best_dist)
    np.copyto(best_pos, wp, where=wall_wins[..., None])
    np.copyto(best_vel, 0.0, where=wall_wins[..., None])
    empty = ~np.isfinite(best_dist)[..., None]
    mid = (np.arange(ns) + 0.5) * (TWO_PI / ns)
    rim = pos[:, None, :] + params.radius * np.stack([np.cos(mid), np.sin(mid)], axis=1)
    np.copyto(best_pos, rim, where=empty)
    np.copyto(best_vel, 0.0, where=empty)

    # Each block is written into its columns of the rows.
    out = np.empty((n, params.feature_dim))
    out[:, :2] = vel
    social = out[:, 2:2 + 4 * ns].reshape(n, ns, 4)
    np.subtract(best_pos, pos[:, None, :], out=social[..., :2])
    np.subtract(best_vel, vel[:, None, :], out=social[..., 2:])
    out[:, 2 + 4 * ns:-4] = _visual_batch(pos, table, valid, row, params).reshape(n, 2 * nr)
    exits = np.stack([_ordered_exit(m.exit) for m in scene.modules])
    np.subtract(exits[row], pos[:, None, :], out=out[:, -4:].reshape(n, 2, 2))
    return out

"""Planar scene geometry: ray casting, containment tests and scene files.

A scene is a list of modules (bottleneck, corridor, corner, t_junction)
chained by a successor map.  Every module carries its own walls, an exit
segment, optional virtual walls that seal junctions, and two axis-aligned
rectangles (measurement and focus area).  All coordinates are metres.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

Point2 = tuple[float, float]

# Tolerance for exact predicates (on-segment, collinear), in metres.
GEOM_EPS = 1e-9

MODULE_KINDS = ("bottleneck", "corridor", "corner", "t_junction")

SCENE_FORMAT = "crowdsim-scene-v1"


def _as_walls(walls) -> np.ndarray:
    """Normalise wall input to a float64 array of shape (n, 2, 2)."""
    arr = np.asarray(walls, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2, 2)
    if arr.ndim != 3 or arr.shape[1:] != (2, 2):
        raise ValueError(f"walls must have shape (n, 2, 2), got {arr.shape}")
    return arr


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


def ray_distances(origins, d: np.ndarray, seg: np.ndarray, collinear: bool = True) -> np.ndarray:
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


def first_wall_crossing(p_from: Point2, p_to: Point2, walls) -> Optional[int]:
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


def first_wall_crossings(p_from, p_to, walls) -> np.ndarray:
    """`first_wall_crossing` of every move p_from[i] -> p_to[i], bit for bit.

    Takes (n, 2) move endpoints and one wall set; returns an (n,) int array
    of wall indices, -1 where the scalar gives None.  Each step keeps the
    scalar's operation: sqrt of `np.vecdot` is `np.linalg.norm` of one
    vector, and the stacked `@` rounds as its per-move `a0 @ dn` and
    `s @ dn` do (einsum and vecdot do not).
    """
    seg = _as_walls(walls)
    a = np.asarray(p_from, dtype=float).reshape(-1, 2)
    d = np.asarray(p_to, dtype=float).reshape(-1, 2) - a          # (n, 2)
    n = a.shape[0]
    if seg.shape[0] == 0 or n == 0:
        return np.full(n, -1)
    dlen = np.sqrt(np.vecdot(d, d))                             # (n,)

    p0 = seg[:, 0, :]
    s = seg[:, 1, :] - seg[:, 0, :]
    slen = np.linalg.norm(s, axis=1)
    a0 = p0 - a[:, None, :]                                     # (n, m, 2)
    dx, dy = d[:, :1], d[:, 1:]                                 # (n, 1)

    denom = dx * s[:, 1] - dy * s[:, 0]
    a0xs = a0[..., 0] * s[:, 1] - a0[..., 1] * s[:, 0]
    a0xd = a0[..., 0] * dy - a0[..., 1] * dx

    with np.errstate(divide="ignore", invalid="ignore"):
        t = a0xs / denom
        u = a0xd / denom

    eps_t = (GEOM_EPS / np.maximum(dlen, GEOM_EPS))[:, None]
    eps_u = GEOM_EPS / np.maximum(slen, GEOM_EPS)
    nonpar = np.abs(denom) > 1e-12
    ok = nonpar & (t >= -eps_t) & (t <= 1.0 + eps_t) & (u >= -eps_u) & (u <= 1.0 + eps_u)
    t_hit = np.where(ok, np.clip(t, 0.0, 1.0), np.inf)

    rows = np.flatnonzero(~np.all(nonpar, axis=1) & (dlen > GEOM_EPS))
    if rows.size:
        dl = dlen[rows, None]
        dn = d[rows] / dl                                       # (r, 2)
        ar = a0[rows]                                           # (r, m, 2)
        perp = np.abs(ar[..., 0] * dn[:, 1:] - ar[..., 1] * dn[:, :1])
        ta = (ar @ dn[:, :, None])[..., 0] / dl
        tb = ta + (np.broadcast_to(s, ar.shape) @ dn[:, :, None])[..., 0] / dl
        lo = np.minimum(ta, tb)
        hi = np.maximum(ta, tb)
        er = eps_t[rows]
        okp = ~nonpar[rows] & (perp <= GEOM_EPS) & (hi >= -er) & (lo <= 1.0 + er)
        t_par = np.where(okp, np.clip(lo, 0.0, 1.0), np.inf)
        t_hit[rows] = np.minimum(t_hit[rows], t_par)

    best = np.argmin(t_hit, axis=1)
    return np.where(np.isfinite(t_hit[np.arange(n), best]), best, -1)


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


def closest_points_on_segments(p, a: np.ndarray,
                               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`closest_point_on_segment` of p to every segment a[i]-b[i], bit for bit.

    Returns the points (m, 2) and distances (m,).  p may carry leading
    axes: k points as (k, 1, 2) give (k, m, 2) and (k, m).  Dots use the
    `@` kernel (np.vecdot) and the clamp keeps Python's min/max choices, so
    each row equals the scalar helper's result exactly.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    ab = np.asarray(b, dtype=float) - a
    denom = np.vecdot(ab, ab)
    degenerate = denom == 0.0
    t = np.vecdot(p - a, ab) / np.where(degenerate, 1.0, denom)
    t = np.where(degenerate | (t < 0.0), 0.0, np.where(t > 1.0, 1.0, t))
    c = a + t[..., None] * ab
    diff = p - c
    return c, np.hypot(diff[..., 0], diff[..., 1])


def point_segment_distance(p: Point2, seg) -> float:
    """Distance from a point to a segment (clamped projection)."""
    s = np.asarray(seg, dtype=float)
    return closest_point_on_segment(p, s[0], s[1])[1]


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
    """`point_in_polygon` of every point (k, 2), bit for bit: (k,) bool."""
    poly = np.asarray(boundary, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    nxt = np.concatenate((poly[1:], poly[:1]))
    on_edge = closest_points_on_segments(pts[:, None], poly, nxt)[1].min(axis=1) <= GEOM_EPS
    x, y = pts[:, :1], pts[:, 1:]
    xi, yi, xj, yj = nxt[:, 0], nxt[:, 1], poly[:, 0], poly[:, 1]
    crosses = (yi > y) != (yj > y)
    x_cross = xi + (y - yi) / np.where(crosses, yj - yi, 1.0) * (xj - xi)
    return on_edge | (np.count_nonzero(crosses & (x < x_cross), axis=1) % 2 == 1)


def rect_mask(area, points) -> np.ndarray:
    """Inclusive containment of (n, 2) points in an (xmin, ymin, xmax, ymax) rect."""
    xmin, ymin, xmax, ymax = (float(v) for v in area)
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    return (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)


def rect_contains(area, p: Point2) -> bool:
    """`rect_mask` of one point."""
    return bool(rect_mask(area, p)[0])


@dataclass(frozen=True)
class ModuleRegion:
    """One scene module with its local geometry."""

    id: str
    kind: str
    boundary: np.ndarray            # (v, 2) polygon, traversal order
    walls: np.ndarray               # (m, 2, 2) solid walls
    exit: np.ndarray                # (2, 2) exit segment endpoints
    entries: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    virtual_walls: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    measurement_area: Optional[tuple[float, float, float, float]] = None
    focus_area: Optional[tuple[float, float, float, float]] = None

    def validate(self) -> None:
        if self.kind not in MODULE_KINDS:
            raise ValueError(f"module {self.id!r}: unknown kind {self.kind!r}")
        if self.boundary.ndim != 2 or self.boundary.shape[0] < 3 or self.boundary.shape[1] != 2:
            raise ValueError(f"module {self.id!r}: boundary needs >= 3 vertices")
        for name, arr in (("boundary", self.boundary), ("walls", self.walls),
                          ("exit", self.exit), ("entries", self.entries),
                          ("virtual_walls", self.virtual_walls)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"module {self.id!r}: non-finite coordinates in {name}")
        if self.exit.shape != (2, 2):
            raise ValueError(f"module {self.id!r}: exit must be one segment (2 endpoints)")
        if np.linalg.norm(self.exit[1] - self.exit[0]) <= GEOM_EPS:
            raise ValueError(f"module {self.id!r}: exit segment has zero length")
        for seg in np.concatenate([self.walls, self.virtual_walls]) if (
                self.walls.size or self.virtual_walls.size) else []:
            if np.linalg.norm(seg[1] - seg[0]) <= GEOM_EPS:
                raise ValueError(f"module {self.id!r}: zero-length wall segment")
        for p in self.exit:
            if not any(point_segment_distance(p, (self.boundary[i], self.boundary[(i + 1) % len(self.boundary)])) <= 1e-6
                       for i in range(len(self.boundary))):
                raise ValueError(f"module {self.id!r}: exit endpoint {p} not on boundary")
        bbox = (self.boundary[:, 0].min(), self.boundary[:, 1].min(),
                self.boundary[:, 0].max(), self.boundary[:, 1].max())
        for name, area in (("measurement_area", self.measurement_area),
                           ("focus_area", self.focus_area)):
            if area is None:
                continue
            xmin, ymin, xmax, ymax = area
            if not (xmin < xmax and ymin < ymax):
                raise ValueError(f"module {self.id!r}: degenerate {name}")
            if xmin < bbox[0] - GEOM_EPS or ymin < bbox[1] - GEOM_EPS \
                    or xmax > bbox[2] + GEOM_EPS or ymax > bbox[3] + GEOM_EPS:
                raise ValueError(f"module {self.id!r}: {name} outside boundary bbox")


@dataclass(frozen=True)
class Scene:
    """Modules in traversal order plus the successor map."""

    modules: tuple[ModuleRegion, ...]
    successor: dict[str, Optional[str]]

    def module(self, module_id: str) -> ModuleRegion:
        for m in self.modules:
            if m.id == module_id:
                return m
        raise KeyError(f"unknown module id {module_id!r}")

    def validate(self) -> None:
        ids = [m.id for m in self.modules]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate module ids")
        if not ids:
            raise ValueError("scene has no modules")
        for m in self.modules:
            m.validate()
        for src, dst in self.successor.items():
            if src not in ids:
                raise ValueError(f"successor map references unknown module {src!r}")
            if dst is not None and dst not in ids:
                raise ValueError(f"module {src!r} has unknown successor {dst!r}")
        for mid in ids:
            if mid not in self.successor:
                raise ValueError(f"module {mid!r} missing from successor map")
            seen = {mid}
            cur = self.successor[mid]
            while cur is not None:
                if cur in seen:
                    raise ValueError(f"successor cycle through {cur!r}")
                seen.add(cur)
                cur = self.successor[cur]


def point_in_module(scene: Scene, p: Point2) -> Optional[str]:
    """Id of the first module (traversal order) containing p, else None."""
    for m in scene.modules:
        if point_in_polygon(p, m.boundary):
            return m.id
    return None


def point_in_modules(scene: Scene, points) -> list[Optional[str]]:
    """`point_in_module` of every point (k, 2): one id or None per point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    found: list[Optional[str]] = [None] * len(pts)
    left = np.arange(len(pts))
    for m in scene.modules:
        if left.size == 0:
            break
        inside = points_in_polygon(pts[left], m.boundary)
        for i in left[inside].tolist():
            found[i] = m.id
        left = left[~inside]
    return found


def active_walls(scene: Scene, module_id: str) -> np.ndarray:
    """Walls perceived from inside a module: its own walls plus virtual walls."""
    m = scene.module(module_id)
    if m.virtual_walls.size == 0:
        return m.walls.copy()
    if m.walls.size == 0:
        return m.virtual_walls.copy()
    return np.concatenate([m.walls, m.virtual_walls], axis=0)


def active_exit(scene: Scene, module_id: str) -> np.ndarray:
    """Exit segment endpoints of a module, shape (2, 2)."""
    return scene.module(module_id).exit.copy()


def _area_from_json(value) -> Optional[tuple[float, float, float, float]]:
    if value is None:
        return None
    if len(value) != 4:
        raise ValueError(f"area must have 4 entries, got {value!r}")
    return tuple(float(v) for v in value)


def scene_from_dict(doc: dict) -> Scene:
    """Build and validate a Scene from its JSON document."""
    if doc.get("format") != SCENE_FORMAT:
        raise ValueError(f"unsupported scene format {doc.get('format')!r}")
    modules = []
    for md in doc.get("modules", []):
        modules.append(ModuleRegion(
            id=str(md["id"]),
            kind=str(md["kind"]),
            boundary=np.asarray(md["boundary"], dtype=float),
            walls=_as_walls(md.get("walls", [])),
            exit=np.asarray(md["exit"], dtype=float),
            entries=_as_walls(md.get("entries", [])),
            virtual_walls=_as_walls(md.get("virtual_walls", [])),
            measurement_area=_area_from_json(md.get("measurement_area")),
            focus_area=_area_from_json(md.get("focus_area")),
        ))
    successor = {str(k): (None if v is None else str(v))
                 for k, v in doc.get("successor", {}).items()}
    scene = Scene(modules=tuple(modules), successor=successor)
    scene.validate()
    return scene


def scene_to_dict(scene: Scene) -> dict:
    mods = []
    for m in scene.modules:
        mods.append({
            "id": m.id,
            "kind": m.kind,
            "boundary": m.boundary.tolist(),
            "walls": m.walls.tolist(),
            "exit": m.exit.tolist(),
            "entries": m.entries.tolist(),
            "virtual_walls": m.virtual_walls.tolist(),
            "measurement_area": None if m.measurement_area is None else list(m.measurement_area),
            "focus_area": None if m.focus_area is None else list(m.focus_area),
        })
    return {"format": SCENE_FORMAT, "modules": mods, "successor": dict(scene.successor)}


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return scene_from_dict(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed scene file ({exc})") from exc


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)
        fh.write("\n")

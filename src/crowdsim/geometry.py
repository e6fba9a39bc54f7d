"""Planar scene geometry: ray casting, containment tests and scene files.

A scene is a list of modules (bottleneck, corridor, corner, t_junction)
chained by a successor map.  Every module carries its own walls, an exit
segment, optional virtual walls that seal junctions, and two axis-aligned
rectangles (measurement and focus area).  All coordinates are metres.

Each predicate has one implementation, a kernel over many rays, moves or
points.  `first_wall_crossing` and `point_in_module` are its one-move and
one-point views; the scalar references the kernels are tested against live
in the test suite, not here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
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


def ray_distances(origins, d: np.ndarray, seg: np.ndarray, valid: np.ndarray,
                  collinear: bool = True) -> np.ndarray:
    """Distance along each unit ray d (k, 2) from each origin (..., 2) to each
    wall of its own wall set seg (..., m, 2, 2).

    valid (..., m) marks the walls of each set that exist; the others never
    hit, so sets of different sizes can be padded to one m.  One shared set
    (m, 2, 2) with its mask (m,) broadcasts over the origins.  Returns shape
    (..., k, m), +inf where the ray misses the wall.  With collinear=False a
    ray running along a wall misses it; otherwise it hits at the nearest
    overlap point.
    """
    o = np.asarray(origins, dtype=float)[..., None, None, :]   # (..., 1, 1, 2)
    p0 = seg[..., None, :, 0, :]                                # (..., 1, m, 2)
    s = seg[..., None, :, 1, :] - p0                            # (..., 1, m, 2)
    slen = np.linalg.norm(s, axis=-1)                           # (..., 1, m)
    a0 = p0 - o                                                 # (..., 1, m, 2)
    dx, dy = d[:, None, 0], d[:, None, 1]                       # (k, 1)

    # 2x2 solve via cross products: t*d - u*s = p0 - o.
    denom = dx * s[..., 1] - dy * s[..., 0]                     # (..., k, m)
    a0xs = a0[..., 0] * s[..., 1] - a0[..., 1] * s[..., 0]      # (..., 1, m)
    a0xd = a0[..., 0] * dy - a0[..., 1] * dx                    # (..., k, m)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = a0xs / denom
        u = a0xd / denom

    eps_u = GEOM_EPS / np.maximum(slen, GEOM_EPS)               # metric endpoint slack
    nonpar = np.abs(denom) > 1e-12
    ok = nonpar & (t >= -GEOM_EPS) & (u >= -eps_u) & (u <= 1.0 + eps_u) & valid[..., None, :]
    t_hit = np.where(ok, np.maximum(t, 0.0), np.inf)

    # Parallel rays: collinear overlap hits at the nearest overlap point.
    # Only the (origin, ray, wall) triples that are parallel are evaluated.
    if collinear:
        at = np.nonzero(np.broadcast_to(~nonpar & valid[..., None, :], t_hit.shape))
        if at[0].size:
            ax, ay, sx, sy, rx, ry = (np.broadcast_to(x, t_hit.shape)[at] for x in (
                a0[..., 0], a0[..., 1], s[..., 0], s[..., 1], dx, dy))
            perp = np.abs(a0xd[at])                             # distance of p0 from the ray line
            ta = ax * rx + ay * ry
            tb = ta + (sx * rx + sy * ry)
            lo = np.minimum(ta, tb)
            hi = np.maximum(ta, tb)
            okp = (perp <= GEOM_EPS) & (hi >= -GEOM_EPS)
            t_hit[at] = np.where(okp, np.maximum(lo, 0.0), np.inf)
    return t_hit


def first_wall_crossings(p_from, p_to, walls) -> np.ndarray:
    """Index of the wall crossed first by every move p_from[i] -> p_to[i].

    Takes (n, 2) move endpoints and one wall set; returns an (n,) int array
    of wall indices, -1 where a move crosses none.  A move crosses a wall
    it touches: endpoints and collinear overlaps count, within GEOM_EPS.
    The tests hold it to a per-move scalar reference bit for bit, so each
    step keeps that reference's operation: sqrt of `np.vecdot` is
    `np.linalg.norm` of one vector, and the stacked `@` rounds as its
    per-move `a0 @ dn` and `s @ dn` do (einsum and vecdot do not).
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


def first_wall_crossing(p_from: Point2, p_to: Point2, walls) -> Optional[int]:
    """`first_wall_crossings` of one move, with None for no crossing."""
    idx = int(first_wall_crossings(p_from, p_to, walls)[0])
    return None if idx < 0 else idx


def closest_points_on_segments(p, a: np.ndarray,
                               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest point of p to every segment a[i]-b[i] (clamped projection).

    Returns the points (m, 2) and distances (m,).  p may carry leading
    axes: k points as (k, 1, 2) give (k, m, 2) and (k, m), and (m, 2)
    points give each point's distance to its own segment.  Dots use the
    `@` kernel (np.vecdot) and the clamp keeps Python's min/max choices, so
    each row equals the tests' scalar reference exactly.
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


def polygon_edges(boundary) -> tuple[np.ndarray, np.ndarray]:
    """Start and end vertices, (v, 2) each, of a closed polygon's edges:
    edge i runs from vertex i to vertex i + 1 (mod v)."""
    poly = np.asarray(boundary, dtype=float)
    return poly, np.roll(poly, -1, axis=0)


def _points_in_polygons(points, start: np.ndarray, end: np.ndarray, first) -> np.ndarray:
    """Even-odd containment of every point (k, 2) in each of several
    polygons whose edges (E, 2) run back to back, polygon j's from index
    first[j] on: (k, len(first)) bool.  Points on a boundary count as
    inside."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    on_edge = closest_points_on_segments(pts[:, None], start, end)[1] <= GEOM_EPS
    # Even-odd count of the edges that straddle y and cross the ray from p
    # toward +x; x_cross is anchored at the edge's later vertex i, as in an
    # edge loop with j = i - 1, so it rounds the same way.
    x, y = pts[:, :1], pts[:, 1:]
    xi, yi, xj, yj = end[:, 0], end[:, 1], start[:, 0], start[:, 1]
    crosses = (yi > y) != (yj > y)
    x_cross = xi + (y - yi) / np.where(crosses, yj - yi, 1.0) * (xj - xi)
    return (np.logical_or.reduceat(on_edge, first, axis=1)
            | (np.add.reduceat(crosses & (x < x_cross), first, axis=1, dtype=int) % 2 == 1))


def rect_mask(area, points) -> np.ndarray:
    """Inclusive containment of (n, 2) points in an (xmin, ymin, xmax, ymax) rect."""
    xmin, ymin, xmax, ymax = (float(v) for v in area)
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    return (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)


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
        gaps = closest_points_on_segments(self.exit[:, None], *polygon_edges(self.boundary))[1]
        for p, gap in zip(self.exit, gaps):
            if not np.any(gap <= 1e-6):
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

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every module's `polygon_edges`, back to back in module order and
        built on first use: starts and ends (E, 2), and the index of each
        module's first edge (M,)."""
        starts, ends = zip(*(polygon_edges(m.boundary) for m in self.modules))
        return (np.concatenate(starts), np.concatenate(ends),
                np.cumsum([0] + [len(m.boundary) for m in self.modules[:-1]]))

    @cached_property
    def wall_table(self) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """Every module's `active_walls`, padded to the largest count and
        built on first use: the row of each module id, the walls
        (M, W, 2, 2), zero past a module's own, and valid (M, W), True on
        a module's own walls."""
        walls = [active_walls(self, m.id) for m in self.modules]
        table = np.zeros((len(walls), max(len(w) for w in walls), 2, 2))
        valid = np.zeros(table.shape[:2], dtype=bool)
        for row, w in enumerate(walls):
            table[row, :len(w)] = w
            valid[row, :len(w)] = True
        return {m.id: row for row, m in enumerate(self.modules)}, table, valid

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


def point_in_modules(scene: Scene, points) -> list[Optional[str]]:
    """Id of the first module, in traversal order, whose boundary polygon
    contains each point (k, 2), else None: one entry per point."""
    inside = _points_in_polygons(points, *scene.edges)
    first = np.where(inside.any(axis=1), inside.argmax(axis=1), len(scene.modules))
    ids = [m.id for m in scene.modules] + [None]
    return [ids[i] for i in first.tolist()]


def point_in_module(scene: Scene, p: Point2) -> Optional[str]:
    """`point_in_modules` of one point."""
    return point_in_modules(scene, [p])[0]


def active_walls(scene: Scene, module_id: str) -> np.ndarray:
    """Walls perceived from inside a module: its own walls plus virtual walls."""
    m = scene.module(module_id)
    if m.virtual_walls.size == 0:
        return m.walls.copy()
    if m.walls.size == 0:
        return m.virtual_walls.copy()
    return np.concatenate([m.walls, m.virtual_walls], axis=0)


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

"""Planar scene geometry: ray casting, containment tests and scene files.

A scene is a list of modules (bottleneck, corridor, corner, t_junction)
chained by a successor map.  Every module carries its own walls, an exit
segment, optional virtual walls that seal junctions, and two axis-aligned
rectangles (measurement and focus area).  All coordinates are metres.

Each predicate has one implementation, a kernel over many rays, moves or
points.  The wall kernels (`ray_distances`, `first_wall_crossings`) take a
padded wall table, such as the scene's `Scene.wall_table`, and one table
row per ray origin or move, so a crowd spread over several modules is one
call; one shared wall set is a one-row table.  `containing_rows` gives
each point's module as its table row (-1: none), the one form in which the
package holds a module.  `first_wall_crossing` and `point_in_module` are
one-move and one-point views that only the benchmark calls; the scalar
references the kernels are tested against live in the test suite.
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


def ray_distances(origins, d: np.ndarray, table: np.ndarray, valid: np.ndarray,
                  rows, collinear: bool = True) -> np.ndarray:
    """Distance along each unit ray d (k, 2) from each origin (g, 2) to each
    wall of its own wall set, row rows[i] (g,) of table (M, m, 2, 2).

    valid (M, m) marks the walls of each row that exist; the others never
    hit, so sets of different sizes can be padded to one m (as
    `Scene.wall_table` is).  Returns shape (g, m, k), wall-major, +inf where
    the ray misses the wall.  With collinear=False a ray running along a
    wall misses it; otherwise it hits at the nearest overlap point.

    The terms of a (ray, wall) pair (segment, slack, denominator, and the
    candidate and parallel masks) are built once per table row.  Per origin
    the broadcasts run on x and y arrays with the k rays innermost, and the
    parallel triples are found from the table rows' parallel masks.
    """
    rows = np.asarray(rows, dtype=int)
    o = np.asarray(origins, dtype=float).reshape(-1, 2)
    ox, oy = o[:, :1], o[:, 1:]                                 # (g, 1)
    dx, dy = d[:, 0].copy(), d[:, 1].copy()                     # (k,)
    p0x, p0y = table[:, :, 0, 0], table[:, :, 0, 1]             # (M, m)
    sx = table[:, :, 1, 0] - p0x
    sy = table[:, :, 1, 1] - p0y
    eps_u = GEOM_EPS / np.maximum(np.sqrt(sx * sx + sy * sy), GEOM_EPS)  # metric endpoint slack

    # 2x2 solve via cross products: t*d - u*s = p0 - o.  The (g, m, k)
    # arrays are a0xd, t and u, each written into once allocated.
    denom = dx * sy[..., None] - dy * sx[..., None]             # (M, m, k)
    nonpar = np.abs(denom) > 1e-12
    a0x = p0x[rows] - ox                                        # (g, m)
    a0y = p0y[rows] - oy
    a0xs = (a0x * sy[rows] - a0y * sx[rows])[..., None]
    a0xd = np.multiply(a0x[..., None], dy)                      # (g, m, k)
    t = np.multiply(a0y[..., None], dx)
    a0xd -= t
    u = denom[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a0xs, u, out=t)
        np.divide(a0xd, u, out=u)
    e = eps_u[rows][..., None]
    ok = (nonpar & valid[..., None])[rows]
    ok &= t >= -GEOM_EPS
    ok &= u >= -e
    ok &= u <= 1.0 + e
    t_hit = np.maximum(t, 0.0, out=t)
    t_hit[~ok] = np.inf

    # Parallel rays: collinear overlap hits at the nearest overlap point.
    # Only the (origin, wall, ray) triples that are parallel are evaluated:
    # each origin takes its table row's triples, in row order.
    if collinear:
        row, wall, ray = np.nonzero(~nonpar & valid[..., None])
        count = np.bincount(row, minlength=len(table))
        per = count[rows]
        i = np.repeat(np.arange(len(rows)), per)
        if i.size:
            first = np.repeat((np.cumsum(count) - count)[rows], per)
            at = first + np.arange(i.size) - np.repeat(np.cumsum(per) - per, per)
            rx, ry = dx[ray], dy[ray]
            sd = (sx[row, wall] * rx + sy[row, wall] * ry)[at]
            rx, ry = rx[at], ry[at]
            ij = i * sx.shape[1] + wall[at]                     # flat (origin, wall)
            ijq = ij * len(dx) + ray[at]                        # flat (origin, wall, ray)
            perp = np.abs(a0xd.take(ijq))                       # distance of p0 from the ray line
            ta = a0x.take(ij) * rx + a0y.take(ij) * ry
            tb = ta + sd
            lo = np.minimum(ta, tb)
            hi = np.maximum(ta, tb)
            okp = (perp <= GEOM_EPS) & (hi >= -GEOM_EPS)
            t_hit.put(ijq, np.where(okp, np.maximum(lo, 0.0), np.inf))
    return t_hit


def first_wall_crossings(p_from, p_to, table: np.ndarray, valid: np.ndarray,
                         rows) -> np.ndarray:
    """Index of the wall crossed first by every move p_from[i] -> p_to[i].

    Takes (n, 2) move endpoints and, like `ray_distances`, a padded wall
    table (M, m, 2, 2) with its mask valid (M, m) and one table row per
    move, rows (n,): move i is tested against the valid walls of row
    rows[i] (one shared set is a one-row table read by every move).
    Returns an (n,) int array of wall indices within the row, -1 where a
    move crosses none.  A move crosses a wall it touches: endpoints and
    collinear overlaps count, within GEOM_EPS.

    The tests hold it to a per-move scalar reference bit for bit, so each
    step keeps that reference's operation: sqrt of `np.vecdot` is
    `np.linalg.norm` of one vector, and the stacked `@` rounds as its
    per-move `a0 @ dn` and `s @ dn` do (einsum and vecdot do not).  Segment
    vectors and slacks are built once per table row.
    """
    rows = np.asarray(rows, dtype=int).reshape(-1)
    a = np.asarray(p_from, dtype=float).reshape(-1, 2)
    d = np.asarray(p_to, dtype=float).reshape(-1, 2) - a          # (n, 2)
    n = a.shape[0]
    if table.shape[1] == 0 or n == 0:
        return np.full(n, -1)
    dlen = np.sqrt(np.vecdot(d, d))                             # (n,)

    s_row = table[:, :, 1, :] - table[:, :, 0, :]               # (M, m, 2)
    eps_u = (GEOM_EPS / np.maximum(np.linalg.norm(s_row, axis=-1), GEOM_EPS))[rows]
    s = s_row[rows]                                             # (n, m, 2)
    sx, sy = s[..., 0], s[..., 1]
    a0 = table[rows, :, 0, :] - a[:, None, :]                   # (n, m, 2)
    dx, dy = d[:, :1], d[:, 1:]                                 # (n, 1)

    denom = dx * sy - dy * sx
    a0xs = a0[..., 0] * sy - a0[..., 1] * sx
    a0xd = a0[..., 0] * dy - a0[..., 1] * dx

    with np.errstate(divide="ignore", invalid="ignore"):
        t = a0xs / denom
        u = a0xd / denom

    eps_t = (GEOM_EPS / np.maximum(dlen, GEOM_EPS))[:, None]
    own = valid[rows]
    nonpar = np.abs(denom) > 1e-12
    par = ~nonpar & own
    ok = nonpar & own & (t >= -eps_t) & (t <= 1.0 + eps_t) & (u >= -eps_u) & (u <= 1.0 + eps_u)
    t_hit = np.where(ok, np.clip(t, 0.0, 1.0), np.inf)

    sel = np.flatnonzero(par.any(axis=1) & (dlen > GEOM_EPS))
    if sel.size:
        dl = dlen[sel, None]
        dn = d[sel] / dl                                        # (r, 2)
        ar = a0[sel]                                            # (r, m, 2)
        perp = np.abs(ar[..., 0] * dn[:, 1:] - ar[..., 1] * dn[:, :1])
        ta = (ar @ dn[:, :, None])[..., 0] / dl
        tb = ta + (s[sel] @ dn[:, :, None])[..., 0] / dl
        lo = np.minimum(ta, tb)
        hi = np.maximum(ta, tb)
        er = eps_t[sel]
        okp = par[sel] & (perp <= GEOM_EPS) & (hi >= -er) & (lo <= 1.0 + er)
        t_par = np.where(okp, np.clip(lo, 0.0, 1.0), np.inf)
        t_hit[sel] = np.minimum(t_hit[sel], t_par)

    best = np.argmin(t_hit, axis=1)
    return np.where(np.isfinite(t_hit[np.arange(n), best]), best, -1)


def first_wall_crossing(p_from: Point2, p_to: Point2, walls) -> Optional[int]:
    """`first_wall_crossings` of one move against one wall set, with None
    for no crossing."""
    seg = _as_walls(walls)
    idx = int(first_wall_crossings(p_from, p_to, seg[None], np.ones((1, len(seg)), dtype=bool),
                                   [0])[0])
    return None if idx < 0 else idx


def segment_terms(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts a (m, 2), vectors b - a (m, 2) and squared lengths (m,) of the
    segments a[i]-b[i]: the terms `project_on_segments` reads, so a fixed
    segment set can build them once."""
    a = np.asarray(a, dtype=float)
    ab = np.asarray(b, dtype=float) - a
    return a, ab, np.vecdot(ab, ab)


def project_on_segments(p, a: np.ndarray, ab: np.ndarray, len2: np.ndarray) -> np.ndarray:
    """The closest points of `closest_points_on_segments`, from a segment
    set's `segment_terms`."""
    degenerate = len2 == 0.0
    t = np.vecdot(p - a, ab) / np.where(degenerate, 1.0, len2)
    t = np.where(degenerate | (t < 0.0), 0.0, np.where(t > 1.0, 1.0, t))
    return a + t[..., None] * ab


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
    c = project_on_segments(p, *segment_terms(a, b))
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
    def wall_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every module's `active_walls`, one row per module in traversal
        order, padded to the largest count and built on first use: the
        walls (M, W, 2, 2), zero past a module's own, and valid (M, W),
        True on a module's own walls."""
        walls = [active_walls(self, m.id) for m in self.modules]
        table = np.zeros((len(walls), max(len(w) for w in walls), 2, 2))
        valid = np.zeros(table.shape[:2], dtype=bool)
        for row, w in enumerate(walls):
            table[row, :len(w)] = w
            valid[row, :len(w)] = True
        return table, valid

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


def containing_rows(scene: Scene, points) -> np.ndarray:
    """Index, in traversal order (the module's `Scene.wall_table` row), of
    the first module whose boundary polygon contains each point (k, 2),
    else -1: an (k,) int array."""
    inside = _points_in_polygons(points, *scene.edges)
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def point_in_module(scene: Scene, p: Point2) -> Optional[str]:
    """Id of the `containing_rows` module of one point, else None."""
    row = int(containing_rows(scene, [p])[0])
    return scene.modules[row].id if row >= 0 else None


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

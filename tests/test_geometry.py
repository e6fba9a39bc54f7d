from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crowdsim.geometry
from crowdsim.geometry import (
    GEOM_EPS,
    ModuleRegion,
    Scene,
    active_walls,
    closest_points_on_segments,
    first_wall_crossings,
    project_on_segments,
    ray_distances,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    segment_terms,
)
from crowdsim.scene_library import BUILTIN_SCENES, builtin_scene, resolve_scene

from oracles import (
    active_exit,
    closest_point_on_segment,
    point_in_modules,
    point_in_polygon,
    point_segment_distance,
    points_in_polygon,
    ray_cast,
    ray_cast_batch,
    rect_contains,
    reference_ray_distances,
)
from oracles import scalar_first_wall_crossing as first_wall_crossing
from oracles import scalar_point_in_module as point_in_module


def _square_module(mid: str = "m1", x0: float = 0.0) -> ModuleRegion:
    b = np.array([[x0, 0.0], [x0 + 2.0, 0.0], [x0 + 2.0, 2.0], [x0, 2.0]])
    walls = np.array([
        [[x0, 0.0], [x0 + 2.0, 0.0]],
        [[x0, 2.0], [x0 + 2.0, 2.0]],
    ])
    return ModuleRegion(
        id=mid, kind="corridor", boundary=b, walls=walls,
        exit=np.array([[x0 + 2.0, 0.0], [x0 + 2.0, 2.0]]),
    )


def test_ray_cast_hits_vertical_wall() -> None:
    hit = ray_cast((0.0, 0.0), 0.0, [[[1.0, -1.0], [1.0, 1.0]]])
    assert hit is not None
    (px, py), dist = hit
    assert px == pytest.approx(1.0)
    assert py == pytest.approx(0.0, abs=1e-12)
    assert dist == pytest.approx(1.0)


def test_ray_cast_miss_returns_none() -> None:
    assert ray_cast((0.0, 0.0), np.pi, [[[1.0, -1.0], [1.0, 1.0]]]) is None
    assert ray_cast((0.0, 0.0), 0.0, []) is None


def test_ray_cast_origin_on_wall_distance_zero() -> None:
    hit = ray_cast((1.0, 0.0), 0.3, [[[1.0, -1.0], [1.0, 1.0]]])
    assert hit is not None
    assert hit[1] == pytest.approx(0.0, abs=1e-12)


def test_ray_cast_endpoint_inclusive() -> None:
    # Ray aimed exactly at the segment tip.
    hit = ray_cast((0.0, 0.0), np.pi / 4, [[[1.0, 1.0], [2.0, 1.0]]])
    assert hit is not None
    assert hit[1] == pytest.approx(np.sqrt(2.0))


def test_ray_cast_collinear_overlap_nearest_point() -> None:
    # Wall lies along the ray; nearest overlap point wins.
    hit = ray_cast((0.0, 0.0), 0.0, [[[3.0, 0.0], [1.5, 0.0]]])
    assert hit is not None
    assert hit[1] == pytest.approx(1.5)
    # Overlap containing the origin starts at distance zero.
    hit = ray_cast((2.0, 0.0), 0.0, [[[1.0, 0.0], [4.0, 0.0]]])
    assert hit is not None
    assert hit[1] == pytest.approx(0.0, abs=1e-12)


def test_ray_cast_picks_nearest_of_many() -> None:
    walls = [
        [[4.0, -1.0], [4.0, 1.0]],
        [[2.0, -1.0], [2.0, 1.0]],
        [[3.0, -1.0], [3.0, 1.0]],
    ]
    hit = ray_cast((0.0, 0.0), 0.0, walls)
    assert hit is not None
    assert hit[1] == pytest.approx(2.0)


def _sampling_oracle(origin, angle, walls, t_max, step=1e-4):
    """Dense walk along the ray in 1e-4 m steps, no analytic solve.

    A wall is hit when the sampled side-of-line sign flips between
    consecutive samples while the projection parameter lies inside the
    segment.  Returns (hit, distance, fragile); fragile flags instances a
    sampled oracle cannot classify reliably (endpoint grazes, near
    misses, collinear runs).
    """
    ts = np.arange(0.0, t_max + step, step)
    d = np.array([np.cos(angle), np.sin(angle)])
    pts = np.asarray(origin, dtype=float)[None, :] + ts[:, None] * d
    seg = np.asarray(walls, dtype=float)
    fragile = False
    best_t = np.inf
    for m in range(seg.shape[0]):
        a, b = seg[m, 0], seg[m, 1]
        ab = b - a
        len2 = float(ab @ ab)
        slen = np.sqrt(len2)
        ap = pts - a[None, :]
        side = ap[:, 0] * ab[1] - ap[:, 1] * ab[0]
        u = (ap @ ab) / len2
        band = 1e-3 / slen
        seg_hit_t = np.inf
        for i in np.flatnonzero(side[:-1] * side[1:] <= 0.0):
            s0, s1 = side[i], side[i + 1]
            if s0 == 0.0 and s1 == 0.0:
                fragile = True          # collinear run along the wall line
                break
            frac = abs(s0) / (abs(s0) + abs(s1))
            u_c = u[i] + frac * (u[i + 1] - u[i])
            if abs(u_c) < band or abs(u_c - 1.0) < band:
                fragile = True          # grazes a segment endpoint
                continue
            if band <= u_c <= 1.0 - band:
                seg_hit_t = ts[i] + frac * step
                break
        if np.isfinite(seg_hit_t):
            best_t = min(best_t, seg_hit_t)
        else:
            # Near miss close to the decision band cannot be classified.
            tproj = np.clip(u, 0.0, 1.0)
            close = a[None, :] + tproj[:, None] * ab[None, :]
            dmin = float(np.linalg.norm(pts - close, axis=1).min())
            if dmin < 1e-2:
                fragile = True
    return bool(np.isfinite(best_t)), (float(best_t) if np.isfinite(best_t) else None), fragile


def test_ray_cast_matches_sampling_oracle() -> None:
    # Randomised instances in a small box; the oracle walks the ray in
    # 1e-4 m steps and reports the first sub-tolerance wall approach.
    rng = np.random.default_rng(20240611)
    checked = 0
    for _ in range(1000):
        origin = rng.uniform(0.1, 0.9, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        walls = rng.uniform(0.0, 1.0, size=(10, 2, 2))
        walls = walls[np.linalg.norm(walls[:, 1] - walls[:, 0], axis=1) > 1e-3]
        if walls.shape[0] == 0:
            continue
        t_max = float(np.max(np.linalg.norm(
            walls.reshape(-1, 2) - origin[None, :], axis=1))) + 1e-3

        o_hit, o_dist, fragile = _sampling_oracle(origin, angle, walls, t_max)
        if fragile:
            continue
        checked += 1

        hit = ray_cast(tuple(origin), float(angle), walls)
        assert (hit is not None) == o_hit, (origin, angle, walls)
        if hit is not None:
            assert abs(hit[1] - o_dist) <= 1e-3, (origin, angle, hit[1], o_dist)
    assert checked >= 500


_AXES = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_COMPOSITE = builtin_scene("composite")


def _reference_rows(origins, d, table, valid, rows, collinear):
    """`reference_ray_distances` of each origin against its own table row's
    valid walls, padded with misses and laid out wall-major like
    `ray_distances`: (g, m, k)."""
    out = np.full((len(origins), table.shape[1], len(d)), np.inf)
    for i, (o, r) in enumerate(zip(origins, rows)):
        walls = table[r, valid[r]]
        out[i, :len(walls)] = reference_ray_distances(o, d, walls, collinear).T
    return out


@settings(max_examples=300)
@given(g=st.integers(1, 5), k=st.integers(1, 12), m=st.integers(0, 6),
       collinear=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(g=3, k=4, m=0, collinear=True, seed=0)        # empty wall sets
def test_ray_distances_equal_the_reference_bitwise(g, k, m, collinear, seed) -> None:
    # Grid coordinates and axis-aligned rays make walls parallel to a ray,
    # and some collinear with it, common; each origin gets one wall laid
    # along one of its rays.  Per-origin sets of 0..m walls are padded to m
    # with more such walls, which the mask must keep from ever hitting.
    rng = np.random.default_rng(seed)
    origins = rng.integers(-8, 9, size=(g, 2)) * 0.25
    angles = rng.integers(0, 36, size=k) * (2.0 * np.pi / 36)
    d = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    axis = rng.random(k) < 0.5
    d[axis] = _AXES[rng.integers(0, 4, size=int(axis.sum()))]
    walls = rng.integers(-8, 9, size=(g, m, 2, 2)) * 0.25
    if m:
        ray = d[rng.integers(0, k, size=g)]
        along = np.sort(rng.integers(-4, 9, size=(g, 2)) * 0.25, axis=1)
        walls[:, rng.integers(0, m)] = origins[:, None, :] + along[..., None] * ray[:, None, :]
    counts = rng.integers(0, m + 1, size=g)
    valid = np.arange(m) < counts[:, None]

    # One table row per origin (rows = arange(g)), padded past each count.
    own = np.arange(g)
    got = ray_distances(origins, d, walls, valid, own, collinear)
    assert got.shape == (g, m, k)
    assert got.tobytes() == _reference_rows(origins, d, walls, valid, own, collinear).tobytes()
    # One shared set for every origin (rows = zeros(g)), every wall valid.
    shared = walls.reshape(-1, 2, 2)[: m + 2]
    every = np.ones((1, len(shared)), dtype=bool)
    got = ray_distances(origins, d, shared[None], every, np.zeros(g, dtype=int), collinear)
    want = reference_ray_distances(origins, d, shared, collinear)      # (g, k, m + 2)
    assert got.tobytes() == want.transpose(0, 2, 1).tobytes()
    # The composite's padded table, each origin on a random module's row.
    table, table_valid = _COMPOSITE.wall_table
    rows = rng.integers(0, len(table), size=g)
    got = ray_distances(origins + 8.0, d, table, table_valid, rows, collinear)
    assert got.tobytes() == _reference_rows(origins + 8.0, d, table, table_valid, rows,
                                            collinear).tobytes()
    # A ray's nearest hit as a running np.minimum over the walls is the
    # reduction's; origins far outside the composite miss with every ray.
    far = np.concatenate([origins + 8.0, origins + 1e3])
    got = ray_distances(far, d, table, table_valid, np.concatenate([rows, rows]), collinear)
    nearest = np.full((len(far), k), np.inf)
    for wall in range(got.shape[1]):
        np.minimum(nearest, got[:, wall], out=nearest)
    assert nearest.tobytes() == got.min(axis=1).tobytes()
    assert np.all(nearest[g:] == np.inf)


def test_first_wall_crossing_inclusive_endpoint() -> None:
    wall = [[[1.0, -1.0], [1.0, 1.0]]]
    # Step ends exactly on the wall: counts as a crossing.
    assert first_wall_crossing((0.0, 0.0), (1.0, 0.0), wall) is not None
    # Step stops short of the wall.
    assert first_wall_crossing((0.0, 0.0), (1.0 - 1e-6, 0.0), wall) is None
    # Step passes through.
    assert first_wall_crossing((0.0, 0.0), (2.0, 0.0), wall) is not None


def test_first_wall_crossing_returns_first_wall() -> None:
    walls = [
        [[1.5, -1.0], [1.5, 1.0]],
        [[0.5, -1.0], [0.5, 1.0]],
    ]
    assert first_wall_crossing((0.0, 0.0), (2.0, 0.0), walls) == 1


def test_first_wall_crossing_randomised_against_orientation_test() -> None:
    # Cross-check against the classic CCW-orientation segment intersection
    # predicate on strictly non-degenerate instances.
    def ccw(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def proper_or_touching(p, q, a, b):
        d1, d2 = ccw(p, q, a), ccw(p, q, b)
        d3, d4 = ccw(a, b, p), ccw(a, b, q)
        if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
            return True
        return False

    rng = np.random.default_rng(7)
    for _ in range(500):
        p, q = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        a, b = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        margins = [abs(ccw(p, q, a)), abs(ccw(p, q, b)), abs(ccw(a, b, p)), abs(ccw(a, b, q))]
        if min(margins) < 1e-6:    # skip near-degenerate layouts
            continue
        want = proper_or_touching(p, q, a, b)
        got = first_wall_crossing(tuple(p), tuple(q), [[a.tolist(), b.tolist()]]) is not None
        assert got == want


def _tricky_moves(rng, walls: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n moves, mostly degenerate against the walls: ending on a wall,
    through a wall point (u = 0 or 1 is a vertex), parallel or collinear to
    a wall, zero length or shorter than GEOM_EPS."""
    a = rng.uniform(-2.0, 2.0, (n, 2))
    b = a + rng.uniform(-2.0, 2.0, (n, 2))
    if n == 0 or walls.shape[0] == 0:
        return a, b
    j = rng.integers(0, walls.shape[0], n)
    p0, s = walls[j, 0], walls[j, 1] - walls[j, 0]
    u = rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-12, rng.uniform(-0.5, 1.5)], (n, 1))
    on_wall = p0 + u * s
    kind = rng.integers(0, 7, n)[:, None]
    d = b - a
    b = np.where(kind == 0, on_wall, b)                                  # ends on a wall
    a = np.where(kind == 1, on_wall - d, a)                              # through a wall point
    b = np.where(kind == 1, on_wall + 0.5 * d, b)
    b = np.where(kind == 2, a + rng.uniform(-1.5, 1.5, (n, 1)) * s, b)  # parallel
    a = np.where(kind == 3, p0 + rng.uniform(-0.5, 1.5, (n, 1)) * s, a)  # collinear
    b = np.where(kind == 3, p0 + rng.uniform(-0.5, 1.5, (n, 1)) * s, b)
    b = np.where(kind == 4, a, b)                                        # zero length
    a = np.where(kind == 5, on_wall, a)                                  # shorter than GEOM_EPS
    b = np.where(kind == 5, on_wall + 1e-10 * s / np.linalg.norm(s, axis=1, keepdims=True), b)
    return a, b


@settings(max_examples=200)
@given(m=st.integers(0, 8), n=st.integers(0, 24), grid=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_first_wall_crossings_equal_the_scalar_per_move(m, n, grid, seed) -> None:
    rng = np.random.default_rng(seed)
    if grid:                    # axis-aligned half-metre walls share lines and vertices
        walls = rng.integers(-4, 5, (m, 2, 2)) * 0.5
        axis = rng.integers(0, 2, m)
        walls[np.arange(m), 1, axis] = walls[np.arange(m), 0, axis]
        walls = walls[np.any(walls[:, 0] != walls[:, 1], axis=1)]
    else:
        walls = rng.uniform(-2.0, 2.0, (m, 2, 2))
    a, b = _tricky_moves(rng, walls, n)
    if grid:                    # a quarter-metre grid keeps the moves' relations to the walls
        a, b = np.round(a * 4.0) / 4.0, np.round(b * 4.0) / 4.0
    got = first_wall_crossings(a, b, walls[None], np.ones((1, len(walls)), dtype=bool),
                               np.zeros(n, dtype=int))
    want = [first_wall_crossing(p, q, walls) for p, q in zip(a, b)]
    assert got.shape == (n,) and got.dtype.kind == "i"
    assert got.tolist() == [-1 if w is None else w for w in want]
    assert [crowdsim.geometry.first_wall_crossing(p, q, walls) for p, q in zip(a, b)] == want


def _random_walls(rng, shape, grid: bool) -> np.ndarray:
    """Walls (*shape, 2, 2): axis-aligned half-metre walls on a grid, which
    share lines and vertices and are sometimes zero-length, or uniform."""
    if not grid:
        return rng.uniform(-2.0, 2.0, (*shape, 2, 2))
    walls = rng.integers(-4, 5, (*shape, 2, 2)) * 0.5
    axis = rng.integers(0, 2, (*shape, 1))              # the end shares the start's x or y
    np.put_along_axis(walls[..., 1, :], axis, np.take_along_axis(walls[..., 0, :], axis, -1), -1)
    return walls


@settings(max_examples=300)
@given(m=st.integers(0, 6), n=st.integers(0, 24), n_rows=st.integers(1, 4),
       grid=st.booleans(), zero_padding=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(m=0, n=6, n_rows=2, grid=False, zero_padding=True, seed=0)   # rows without walls
@example(m=3, n=0, n_rows=2, grid=True, zero_padding=True, seed=0)    # no moves
def test_first_wall_crossings_table_rows_equal_the_scalar(m, n, n_rows, grid, zero_padding,
                                                           seed) -> None:
    # Each move reads its own row of a padded table.  The padding is zero
    # walls at the origin, as in Scene.wall_table, which moves through,
    # from or to the origin would touch if the mask let them count, or
    # more walls like the valid ones.  The result is the column of the
    # wall the scalar reference finds among the row's valid walls.
    rng = np.random.default_rng(seed)
    table = _random_walls(rng, (n_rows, m), grid)
    valid = rng.random((n_rows, m)) < 0.7
    if zero_padding:
        table[~valid] = 0.0
    rows = rng.integers(0, n_rows, n)
    walls = table[valid]
    a, b = _tricky_moves(rng, walls[np.any(walls[:, 0] != walls[:, 1], axis=1)], n)
    kind = rng.integers(0, 5, n)[:, None]
    d = b - a
    a = np.where(kind == 0, -d, a)                                       # through the origin
    b = np.where(kind == 0, 0.5 * d, b)
    b = np.where(kind == 1, 0.0, b)                                      # ending at the origin
    a = np.where(kind == 2, 0.0, a)                                      # from the origin
    if grid:
        a, b = np.round(a * 4.0) / 4.0, np.round(b * 4.0) / 4.0

    def scalar(rows_of):
        out = []
        for p, q, r in zip(a, b, rows_of):
            hit = first_wall_crossing(p, q, table[r, valid[r]])
            out.append(-1 if hit is None else int(np.flatnonzero(valid[r])[hit]))
        return out

    got = first_wall_crossings(a, b, table, valid, rows)
    assert got.shape == (n,) and got.dtype.kind == "i"
    assert got.tolist() == scalar(rows)
    # one shared row read by every move
    shared = np.zeros(n, dtype=int)
    assert first_wall_crossings(a, b, table[:1], valid[:1], shared).tolist() == scalar(shared)


@settings(max_examples=200)
@given(k=st.integers(1, 8), m=st.integers(0, 6), n_rows=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
@example(k=3, m=0, n_rows=2, seed=0)                   # rows without walls
def test_one_projection_equals_each_subject_projection(k, m, n_rows, seed) -> None:
    # The force law's wall points: one project_on_segments call over every
    # subject's padded table row (the (k, 1, 2) form) equals, on the row's
    # valid walls, the subject's own call on its walls, row for row.  Grid
    # walls are sometimes zero-length, and subjects sit on a wall, at an
    # endpoint, on a zero-length wall or at the padding's origin.
    rng = np.random.default_rng(seed)
    table = _random_walls(rng, (n_rows, m), grid=True)
    valid = np.arange(m) < rng.integers(0, m + 1, (n_rows, 1))
    table[~valid] = 0.0
    rows = rng.integers(0, n_rows, k)
    p = rng.integers(-8, 9, (k, 2)) * 0.25
    if m:
        on = table[rows, rng.integers(0, m, k)]
        u = rng.choice([0.0, 0.5, 1.0, rng.uniform()], (k, 1))
        kind = rng.integers(0, 3, (k, 1))
        p = np.where(kind == 0, on[:, 0] + u * (on[:, 1] - on[:, 0]), p)
        p = np.where(kind == 1, 0.0, p)
    a, ab, len2 = segment_terms(table[:, :, 0], table[:, :, 1])
    got = project_on_segments(p[:, None], a[rows], ab[rows], len2[rows])
    assert got.shape == (k, m, 2)
    for i, r in enumerate(rows):
        walls = table[r, valid[r]]
        want = project_on_segments(p[i], *segment_terms(walls[:, 0], walls[:, 1]))
        assert got[i, valid[r]].tobytes() == want.tobytes()


def test_point_in_polygon_boundary_inclusive() -> None:
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert point_in_polygon((1.0, 1.0), square)
    assert point_in_polygon((0.0, 1.0), square)      # on edge
    assert point_in_polygon((2.0, 2.0), square)      # on vertex
    assert not point_in_polygon((2.1, 1.0), square)
    assert not point_in_polygon((-0.001, 1.0), square)


def _point_in_polygon_loop(p, boundary) -> bool:
    """Edge-by-edge even-odd test: the scalar oracle of point_in_polygon."""
    poly = np.asarray(boundary, dtype=float)
    n = poly.shape[0]
    x, y = float(p[0]), float(p[1])
    for i in range(n):
        if point_segment_distance((x, y), (poly[i], poly[(i + 1) % n])) <= GEOM_EPS:
            return True
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
            if x < x_cross:
                inside = not inside
        j = i
    return inside


_BUILTIN_BOUNDARIES = [m.boundary for name in sorted(BUILTIN_SCENES)
                       for m in builtin_scene(name).modules]


@settings(max_examples=150)
@given(which=st.integers(0, len(_BUILTIN_BOUNDARIES)), seed=st.integers(0, 2**32 - 1))
def test_point_in_polygon_matches_the_edge_loop(which, seed) -> None:
    rng = np.random.default_rng(seed)
    if which < len(_BUILTIN_BOUNDARIES):
        poly = _BUILTIN_BOUNDARIES[which]
    else:                       # a random star-shaped, often concave polygon
        k = int(rng.integers(3, 10))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        poly = rng.uniform(0.5, 2.0, (k, 1)) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    points = _probe_points(rng, poly)
    for p in points:
        assert point_in_polygon(p, poly) == _point_in_polygon_loop(p, poly), tuple(p)
    assert points_in_polygon(points, poly).tolist() == [point_in_polygon(p, poly) for p in points]


def _probe_points(rng, poly: np.ndarray) -> np.ndarray:
    """Points in and around a polygon: random, on edges, on vertices, at
    +-GEOM_EPS and -2 GEOM_EPS from them, and level with the vertices."""
    lo, hi = poly.min(axis=0) - 0.5, poly.max(axis=0) + 0.5
    edge = rng.integers(0, len(poly), 20)
    along = rng.uniform(0.0, 1.0, (20, 1))
    on_edges = poly[edge] + along * (np.roll(poly, -1, axis=0)[edge] - poly[edge])
    return np.concatenate([rng.uniform(lo, hi, (40, 2)), on_edges, poly,
                           poly + GEOM_EPS, poly - GEOM_EPS, poly - 2.0 * GEOM_EPS,
                           np.stack([rng.uniform(lo[0], hi[0], len(poly)), poly[:, 1]], 1)])


_SCENES = [builtin_scene(name) for name in sorted(BUILTIN_SCENES)] + [
    Scene(modules=(_square_module("m1", 0.0), _square_module("m2", 2.0)),
          successor={"m1": "m2", "m2": None})]


@settings(max_examples=60)
@given(which=st.integers(0, len(_SCENES) - 1), seed=st.integers(0, 2**32 - 1))
def test_point_in_modules_equals_point_in_module(which, seed) -> None:
    # builtin composite and the two squares have modules sharing borders
    scene = _SCENES[which]
    rng = np.random.default_rng(seed)
    points = np.concatenate([_probe_points(rng, m.boundary) for m in scene.modules])
    assert point_in_modules(scene, points) == [point_in_module(scene, p) for p in points]
    assert ([crowdsim.geometry.point_in_module(scene, p) for p in points]
            == [point_in_module(scene, p) for p in points])
    assert point_in_modules(scene, np.zeros((0, 2))) == []


@settings(max_examples=100)
@given(m=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_closest_points_on_segments_equal_the_scalar_helper(m, seed) -> None:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, 2))
    b = a + rng.normal(size=(m, 2)) * rng.choice([0.0, 1e-7, 1.0], size=(m, 1))
    p = rng.normal(size=2)
    if m:
        p = [p, a[0], b[-1]][int(rng.integers(3))]
    points, dists = closest_points_on_segments(p, a, b)
    for i in range(m):
        c, d = closest_point_on_segment(p, a[i], b[i])
        assert points[i].tobytes() == c.tobytes() and dists[i] == d


def test_point_in_module_traversal_order_tie() -> None:
    m1 = _square_module("m1", 0.0)
    m2 = _square_module("m2", 2.0)
    scene = Scene(modules=(m1, m2), successor={"m1": "m2", "m2": None})
    scene.validate()
    # Shared edge x = 2 belongs to the module listed first.
    assert point_in_module(scene, (2.0, 1.0)) == "m1"
    assert point_in_module(scene, (2.5, 1.0)) == "m2"
    assert point_in_module(scene, (5.0, 1.0)) is None


def test_active_walls_includes_virtual_walls() -> None:
    m = ModuleRegion(
        id="m", kind="corner",
        boundary=np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]),
        walls=np.array([[[0.0, 0.0], [2.0, 0.0]]]),
        exit=np.array([[2.0, 0.0], [2.0, 2.0]]),
        virtual_walls=np.array([[[0.0, 0.0], [0.0, 2.0]]]),
    )
    scene = Scene(modules=(m,), successor={"m": None})
    scene.validate()
    walls = active_walls(scene, "m")
    assert walls.shape == (2, 2, 2)
    ex = active_exit(scene, "m")
    assert ex.tolist() == [[2.0, 0.0], [2.0, 2.0]]
    with pytest.raises(KeyError):
        active_walls(scene, "nope")


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENES))
def test_wall_table_pads_each_module_active_walls(name) -> None:
    scene = builtin_scene(name)
    table, valid = scene.wall_table
    assert len(table) == len(scene.modules)             # one row per module, in order
    assert table.shape[:2] == valid.shape
    for row, m in enumerate(scene.modules):
        walls = active_walls(scene, m.id)
        assert valid[row].tolist() == [i < len(walls) for i in range(valid.shape[1])]
        assert table[row, :len(walls)].tobytes() == walls.tobytes()
    assert scene.wall_table is scene.wall_table         # built once


def test_scene_validation_rejects_cycles_and_bad_refs() -> None:
    m1 = _square_module("m1", 0.0)
    m2 = _square_module("m2", 2.0)
    with pytest.raises(ValueError, match="cycle"):
        Scene(modules=(m1, m2), successor={"m1": "m2", "m2": "m1"}).validate()
    with pytest.raises(ValueError, match="unknown successor"):
        Scene(modules=(m1,), successor={"m1": "ghost"}).validate()
    with pytest.raises(ValueError, match="missing from successor"):
        Scene(modules=(m1,), successor={}).validate()


def test_exit_endpoints_must_lie_within_1e_6_of_the_boundary() -> None:
    m = _square_module()
    for off in (0.9e-6, -0.9e-6):
        replace(m, exit=np.array([[2.0 + off, 0.5], [2.0 + off, 1.5]])).validate()
    for exit, first_bad in (([[2.0, 0.5], [2.0 + 2e-6, 1.5]], 1),
                            ([[2.0 - 2e-6, 0.5], [2.0 + 2e-6, 1.5]], 0)):
        exit = np.array(exit)
        message = f"exit endpoint {exit[first_bad]} not on boundary"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(m, exit=exit).validate()


def test_scene_round_trip_through_dict() -> None:
    m1 = _square_module("m1", 0.0)
    scene = Scene(modules=(m1,), successor={"m1": None})
    doc = scene_to_dict(scene)
    back = scene_from_dict(doc)
    assert back.modules[0].id == "m1"
    np.testing.assert_allclose(back.modules[0].walls, m1.walls)
    np.testing.assert_allclose(back.modules[0].exit, m1.exit)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENES))
def test_builtin_scene_survives_a_file_round_trip(name, tmp_path) -> None:
    path = tmp_path / f"{name}.json"
    save_scene(builtin_scene(name), path)
    assert scene_to_dict(resolve_scene(str(path))) == scene_to_dict(resolve_scene(name))


def test_rect_contains_inclusive() -> None:
    area = (0.0, 0.0, 2.0, 1.0)
    assert rect_contains(area, (0.0, 0.0))
    assert rect_contains(area, (2.0, 1.0))
    assert not rect_contains(area, (2.0001, 1.0))


def test_point_segment_distance_basics() -> None:
    assert point_segment_distance((0.0, 1.0), [[-1.0, 0.0], [1.0, 0.0]]) == pytest.approx(1.0)
    assert point_segment_distance((3.0, 0.0), [[-1.0, 0.0], [1.0, 0.0]]) == pytest.approx(2.0)

from __future__ import annotations

import numpy as np
import pytest

from crowdsim.geometry import (
    GEOM_EPS,
    ModuleRegion,
    Scene,
    active_exit,
    active_walls,
    first_wall_crossing,
    point_in_module,
    point_in_polygon,
    point_segment_distance,
    ray_cast,
    ray_cast_batch,
    rect_contains,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from crowdsim.scene_library import BUILTIN_SCENES, builtin_scene, resolve_scene


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


def test_point_in_polygon_boundary_inclusive() -> None:
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert point_in_polygon((1.0, 1.0), square)
    assert point_in_polygon((0.0, 1.0), square)      # on edge
    assert point_in_polygon((2.0, 2.0), square)      # on vertex
    assert not point_in_polygon((2.1, 1.0), square)
    assert not point_in_polygon((-0.001, 1.0), square)


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


def test_scene_validation_rejects_cycles_and_bad_refs() -> None:
    m1 = _square_module("m1", 0.0)
    m2 = _square_module("m2", 2.0)
    with pytest.raises(ValueError, match="cycle"):
        Scene(modules=(m1, m2), successor={"m1": "m2", "m2": "m1"}).validate()
    with pytest.raises(ValueError, match="unknown successor"):
        Scene(modules=(m1,), successor={"m1": "ghost"}).validate()
    with pytest.raises(ValueError, match="missing from successor"):
        Scene(modules=(m1,), successor={}).validate()


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

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdsim.features import ExtractionParams, extract_batch
from crowdsim.geometry import (
    ModuleRegion,
    Scene,
    active_walls,
)
from crowdsim.scene_library import BUILTIN_SCENES

from oracles import (
    active_exit,
    assemble_step,
    extract_exit,
    extract_social,
    extract_step,
    extract_visual,
    ray_cast_batch,
    stack_window,
    wall_points_in_disk,
)
from oracles import scalar_point_in_module as point_in_module

P18 = ExtractionParams(sector_deg=18.0)


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        ExtractionParams(sector_deg=17.0)
    with pytest.raises(ValueError):
        ExtractionParams(ray_deg=0.0)
    with pytest.raises(ValueError):
        ExtractionParams(radius=-1.0)
    with pytest.raises(ValueError):
        ExtractionParams(window=0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["radius", "vision_range", "sector_deg", "ray_deg"])
def test_params_must_be_finite(name, value) -> None:
    # NaN or inf once gave non-finite features, or a ZeroDivisionError in
    # extract_batch, instead of an error naming the field
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
        ExtractionParams(**{name: value})


def test_feature_dimension_table() -> None:
    # 20 sectors at 18 degrees; ray spacing sweeps the advertised sizes.
    assert ExtractionParams(ray_deg=5.0).feature_dim == 230
    assert ExtractionParams(ray_deg=10.0).feature_dim == 158
    assert ExtractionParams(ray_deg=15.0).feature_dim == 134
    assert ExtractionParams(ray_deg=18.0).feature_dim == 126


def test_social_empty_scene_arc_midpoints() -> None:
    v = np.array([0.7, -0.2])
    table = extract_social((0.0, 0.0), v, np.zeros((0, 2)), np.zeros((0, 2)), [], P18)
    assert table.shape == (20, 4)
    width = 2.0 * np.pi / 20
    mids = (np.arange(20) + 0.5) * width
    expect = 1.2 * np.stack([np.cos(mids), np.sin(mids)], axis=1)
    np.testing.assert_allclose(table[:, 0:2], expect, atol=1e-12)
    np.testing.assert_allclose(table[:, 2:4], np.tile(-v, (20, 1)), atol=1e-12)


def test_social_single_neighbour_lands_in_its_sector() -> None:
    v = np.array([1.0, 0.0])
    other = np.array([[0.5, 0.5]])      # bearing 45 deg -> sector 2 ([36, 54))
    other_v = np.array([[-0.3, 0.1]])
    table = extract_social((0.0, 0.0), v, other, other_v, [], P18)
    np.testing.assert_allclose(table[2, 0:2], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(table[2, 2:4], [-1.3, 0.1], atol=1e-12)
    # Remaining sectors fall back to their arc midpoints.
    width = 2.0 * np.pi / 20
    for j in (0, 1, 3, 10):
        mid = (j + 0.5) * width
        np.testing.assert_allclose(table[j, 0:2], 1.2 * np.array([np.cos(mid), np.sin(mid)]),
                                   atol=1e-12)


def test_social_sector_bins_are_half_open() -> None:
    width_deg = 18.0
    # Exactly on the 18-degree boundary: belongs to sector 1, not 0.
    ang = np.deg2rad(width_deg)
    other = np.array([[np.cos(ang), np.sin(ang)]])
    table = extract_social((0.0, 0.0), (0.0, 0.0), other, np.zeros((1, 2)), [], P18)
    np.testing.assert_allclose(table[1, 0:2], other[0], atol=1e-12)
    mid0 = 0.5 * np.deg2rad(width_deg)
    np.testing.assert_allclose(table[0, 0:2], 1.2 * np.array([np.cos(mid0), np.sin(mid0)]),
                               atol=1e-12)
    # Bearing 0 belongs to sector 0.
    other = np.array([[0.9, 0.0]])
    table = extract_social((0.0, 0.0), (0.0, 0.0), other, np.zeros((1, 2)), [], P18)
    np.testing.assert_allclose(table[0, 0:2], [0.9, 0.0], atol=1e-12)


def test_social_ignores_entities_beyond_radius() -> None:
    other = np.array([[1.3, 0.0]])       # outside the 1.2 m disk
    table = extract_social((0.0, 0.0), (0.0, 0.0), other, np.zeros((1, 2)), [], P18)
    mid0 = 0.5 * np.deg2rad(18.0)
    np.testing.assert_allclose(table[0, 0:2], 1.2 * np.array([np.cos(mid0), np.sin(mid0)]),
                               atol=1e-12)
    # Exactly on the rim: still included.
    other = np.array([[1.2, 0.0]])
    table = extract_social((0.0, 0.0), (0.0, 0.0), other, np.zeros((1, 2)), [], P18)
    np.testing.assert_allclose(table[0, 0:2], [1.2, 0.0], atol=1e-12)


def test_social_tie_prefers_pedestrian_over_wall() -> None:
    # Wall point and pedestrian both at exactly 1.0 m along the x axis.
    walls = [[[1.0, -0.5], [1.0, 0.5]]]
    other = np.array([[1.0, 0.0]])
    other_v = np.array([[0.4, 0.0]])
    table = extract_social((0.0, 0.0), (0.0, 0.0), other, other_v, walls, P18)
    np.testing.assert_allclose(table[0, 2:4], [0.4, 0.0], atol=1e-12)


def test_social_wall_selection_analytic_vertical_wall() -> None:
    # Long vertical wall at x = 1; subject at the origin.
    walls = [[[1.0, -5.0], [1.0, 5.0]]]
    table = extract_social((0.0, 0.0), (0.0, 0.0), np.zeros((0, 2)), np.zeros((0, 2)),
                           walls, P18)
    a = np.deg2rad(18.0)
    # Sector 0: foot of the perpendicular.
    np.testing.assert_allclose(table[0, 0:2], [1.0, 0.0], atol=1e-9)
    # Sector 1: wedge-constrained optimum on the 18-degree boundary ray.
    np.testing.assert_allclose(table[1, 0:2], [1.0, np.tan(a)], atol=1e-9)
    # Sector 2: nearest wedge point is beyond the disk -> arc midpoint.
    mid2 = 2.5 * a
    np.testing.assert_allclose(table[2, 0:2], 1.2 * np.array([np.cos(mid2), np.sin(mid2)]),
                               atol=1e-9)
    # Mirrored on the other side of the axis.
    np.testing.assert_allclose(table[19, 0:2], [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(table[18, 0:2], [1.0, -np.tan(a)], atol=1e-9)


def _sweep_oracle_wall_dists(pos, walls, radius, n_sectors, step_rad=1e-3):
    """Per-sector min wall distance from a dense angular sweep of ray casts.

    Sweeps each closed wedge including its boundary rays and the exact
    bearings of segment endpoints, the constrained minimum candidates a
    uniform grid can miss.
    """
    width = 2.0 * np.pi / n_sectors
    seg = np.asarray(walls, dtype=float).reshape(-1, 2, 2)
    ends = seg.reshape(-1, 2)
    rel = ends - np.asarray(pos, dtype=float)[None, :]
    end_ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * np.pi)
    out = np.full(n_sectors, np.inf)
    for j in range(n_sectors):
        lo, hi = j * width, (j + 1) * width
        grid = np.linspace(lo, hi, int(np.ceil(width / step_rad)) + 1)
        inside = end_ang[(end_ang >= lo) & (end_ang <= hi)]
        angles = np.concatenate([grid, inside])
        dists, _ = ray_cast_batch(pos, angles, seg)
        dists = dists[np.isfinite(dists) & (dists <= radius)]
        if dists.size:
            out[j] = dists.min()
    return out


def test_wall_points_match_sweep_oracle() -> None:
    rng = np.random.default_rng(987)
    radius, n_sectors = 1.2, 20
    for _ in range(500):
        nseg = rng.integers(2, 6)
        walls = rng.uniform(-2.0, 2.0, size=(nseg, 2, 2))
        walls = walls[np.linalg.norm(walls[:, 1] - walls[:, 0], axis=1) > 1e-2]
        if walls.shape[0] == 0:
            continue
        pos = rng.uniform(-0.5, 0.5, size=2)
        if min(np.linalg.norm(walls.reshape(-1, 2) - pos[None, :], axis=1)) < 1e-3:
            continue

        fast, _ = wall_points_in_disk(pos, walls, radius, n_sectors)
        oracle = _sweep_oracle_wall_dists(pos, walls, radius, n_sectors)
        for j in range(n_sectors):
            f, o = fast[j], oracle[j]
            if np.isfinite(f) and np.isfinite(o):
                assert abs(f - o) <= 1e-3, (j, f, o, pos, walls)
            elif np.isfinite(f) != np.isfinite(o):
                # Disagreement is only tolerable on the disk rim knife edge.
                present = f if np.isfinite(f) else o
                assert radius - 2e-3 <= present <= radius + 2e-3, (j, f, o, pos, walls)


def test_social_pedestrian_block_matches_enumeration_oracle() -> None:
    rng = np.random.default_rng(2024)
    params = P18
    width = 2.0 * np.pi / params.n_sectors
    for _ in range(300):
        n = int(rng.integers(1, 12))
        opos = rng.uniform(-1.5, 1.5, size=(n, 2))
        ovel = rng.uniform(-2.0, 2.0, size=(n, 2))
        pos = rng.uniform(-0.2, 0.2, size=2)
        vel = rng.uniform(-2.0, 2.0, size=2)

        table = extract_social(pos, vel, opos, ovel, [], params)

        # Plain per-sector enumeration with the same tie rules.
        for j in range(params.n_sectors):
            best = None
            for i in range(n):
                rel = opos[i] - pos
                d = float(np.linalg.norm(rel))
                if d > params.radius:
                    continue
                ang = np.mod(np.arctan2(rel[1], rel[0]), 2.0 * np.pi)
                if int(ang // width) % params.n_sectors != j:
                    continue
                if best is None or d < best[0]:
                    best = (d, i)
            if best is None:
                mid = (j + 0.5) * width
                expect_p = pos + params.radius * np.array([np.cos(mid), np.sin(mid)])
                expect_v = np.zeros(2)
            else:
                expect_p = opos[best[1]]
                expect_v = ovel[best[1]]
            np.testing.assert_allclose(table[j, 0:2], expect_p - pos, atol=1e-12)
            np.testing.assert_allclose(table[j, 2:4], expect_v - vel, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_visual_empty_scene_uses_vision_range() -> None:
    params = ExtractionParams(ray_deg=45.0, vision_range=20.0)
    vis = extract_visual((1.0, 2.0), [], params)
    assert vis.shape == (8, 2)
    angles = np.arange(8) * np.deg2rad(45.0)
    expect = 20.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    np.testing.assert_allclose(vis, expect, atol=1e-9)


def test_visual_square_room_exact_hits() -> None:
    # 4 x 4 room centred at the origin, subject offset from the centre.
    walls = [
        [[-2.0, -2.0], [2.0, -2.0]],
        [[2.0, -2.0], [2.0, 2.0]],
        [[2.0, 2.0], [-2.0, 2.0]],
        [[-2.0, 2.0], [-2.0, -2.0]],
    ]
    params = ExtractionParams(ray_deg=90.0, vision_range=20.0)
    vis = extract_visual((1.0, 0.5), walls, params)
    np.testing.assert_allclose(vis, [[1.0, 0.0], [0.0, 1.5], [-3.0, 0.0], [0.0, -2.5]],
                               atol=1e-9)
    # Diagonal ray from the centre meets the corner.
    params = ExtractionParams(ray_deg=45.0, vision_range=20.0)
    vis = extract_visual((0.0, 0.0), walls, params)
    np.testing.assert_allclose(vis[1], [2.0, 2.0], atol=1e-9)


def test_visual_warns_when_most_rays_miss() -> None:
    walls = [[[5.0, -0.1], [5.0, 0.1]]]   # tiny far-away wall
    params = ExtractionParams(ray_deg=18.0)
    with pytest.warns(RuntimeWarning, match="vision rays"):
        extract_visual((0.0, 0.0), walls, params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_visual_vision_range_values() -> None:
    for de in (20.0, 100.0):
        params = ExtractionParams(ray_deg=90.0, vision_range=de)
        vis = extract_visual((0.0, 0.0), [[[1.0, -1.0], [1.0, 1.0]]], params)
        np.testing.assert_allclose(vis[0], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(vis[1], [0.0, de], atol=1e-9)


def test_exit_endpoints_ordered_lexicographically() -> None:
    rel = extract_exit((1.0, 1.0), [[2.0, 3.0], [2.0, -1.0]])
    np.testing.assert_allclose(rel, [[1.0, -2.0], [1.0, 2.0]])
    # Order is by absolute coordinates, invariant to the subject position.
    rel2 = extract_exit((-5.0, 0.0), [[2.0, -1.0], [2.0, 3.0]])
    np.testing.assert_allclose(rel2, [[7.0, -1.0], [7.0, 3.0]])
    rel3 = extract_exit((0.0, 0.0), [[4.0, 0.0], [-4.0, 0.0]])
    np.testing.assert_allclose(rel3, [[-4.0, 0.0], [4.0, 0.0]])


def test_assemble_step_layout_and_validation() -> None:
    params = ExtractionParams(ray_deg=90.0)
    social = np.arange(80, dtype=float).reshape(20, 4)
    visual = np.arange(8, dtype=float).reshape(4, 2)
    exit_rel = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = assemble_step((9.0, 8.0), social, visual, exit_rel, params)
    assert out.shape == (params.feature_dim,)
    np.testing.assert_allclose(out[:2], [9.0, 8.0])
    np.testing.assert_allclose(out[2:82], social.ravel())
    np.testing.assert_allclose(out[82:90], visual.ravel())
    np.testing.assert_allclose(out[90:], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        assemble_step((9.0, 8.0), social[:19], visual, exit_rel, params)
    with pytest.raises(ValueError):
        assemble_step((9.0, 8.0), social, visual[:3], exit_rel, params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extract_step_is_float64_and_finite() -> None:
    walls = [[[2.0, -2.0], [2.0, 2.0]]]
    out = extract_step((0.0, 0.0), (1.0, 0.0), [[0.4, 0.4]], [[0.5, -0.5]],
                       walls, [[2.0, -1.0], [2.0, 1.0]], P18)
    assert out.dtype == np.float64
    assert np.all(np.isfinite(out))
    assert out.shape == (P18.feature_dim,)


def test_stack_window_shape() -> None:
    steps = [np.arange(5.0) + i for i in range(8)]
    win = stack_window(steps)
    assert win.shape == (8, 5)
    with pytest.raises(ValueError):
        stack_window(np.zeros(5))


def _open_scene() -> Scene:
    """One square module without walls: every vision ray misses."""
    m = ModuleRegion(id="open", kind="corridor",
                     boundary=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]),
                     walls=np.zeros((0, 2, 2)), exit=np.array([[4.0, 0.0], [4.0, 4.0]]))
    return Scene(modules=(m,), successor={"open": None})


def _open_then_walled_scene() -> Scene:
    """The open square, its exit leading into a walled one: in one call the
    open module's empty wall set is padded to the walled one's two walls,
    with padding at the origin, inside the open square's perception disks."""
    walled = ModuleRegion(
        id="walled", kind="corridor",
        boundary=np.array([[4.0, 0.0], [8.0, 0.0], [8.0, 4.0], [4.0, 4.0]]),
        walls=np.array([[[4.0, 0.0], [8.0, 0.0]], [[8.0, 4.0], [4.0, 4.0]]]),
        exit=np.array([[8.0, 0.0], [8.0, 4.0]]))
    return Scene(modules=(_open_scene().modules[0], walled),
                 successor={"open": "walled", "walled": None})


BATCH_SCENES = {**{name: build() for name, build in BUILTIN_SCENES.items()},
                "open": _open_scene(), "open_then_walled": _open_then_walled_scene()}

# Around pedestrian 0: a co-located pedestrian, one within GEOM_EPS of it
# (sector 0 too), four on the axis sector boundaries at equal distance, and
# two at equal distance in one 18-degree sector (bearings 36.9 and 53.1
# degrees).  All but the second are exact binary fractions.
_SPECIAL_OFFSETS = [(0.0, 0.0), (-3e-10, 2e-10), (0.5, 0.0), (0.0, 0.5), (-0.5, 0.0),
                    (0.0, -0.5), (0.5, 0.375), (0.375, 0.5)]


def _random_crowd(scene: Scene, rng: np.random.Generator, n: int, grid):
    lo = np.min([m.boundary.min(axis=0) for m in scene.modules], axis=0)
    hi = np.max([m.boundary.max(axis=0) for m in scene.modules], axis=0)
    pts = []
    while len(pts) < n:
        p = rng.uniform(lo, hi)
        if grid is not None:                # grid points give equal distances
            p = np.round(p / grid) * grid
        if point_in_module(scene, p) is not None:
            pts.append(p)
    pos = np.array(pts)
    for k, off in enumerate(_SPECIAL_OFFSETS[:n - 1], start=1):
        pos[k] = pos[0] + off
    vel = rng.normal(size=(n, 2))
    module_ids = [point_in_module(scene, p) or scene.modules[0].id for p in pos]
    return pos, vel, module_ids


@settings(max_examples=60)
@given(scene_name=st.sampled_from(sorted(BATCH_SCENES)), n=st.integers(1, 40),
       grid=st.sampled_from([None, 0.125, 0.25]),
       params=st.sampled_from([ExtractionParams(),
                               ExtractionParams(ray_deg=45.0),
                               ExtractionParams(sector_deg=45.0, ray_deg=90.0, radius=3.0)]),
       seed=st.integers(0, 2**32 - 1))
def test_extract_batch_rows_equal_extract_step_bitwise(scene_name, n, grid, params, seed) -> None:
    scene = BATCH_SCENES[scene_name]
    rng = np.random.default_rng(seed)
    pos, vel, module_ids = _random_crowd(scene, rng, n, grid)
    ids = [m.id for m in scene.modules]
    table_rows = np.array([ids.index(m) for m in module_ids])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = extract_batch(pos, vel, table_rows, scene, params)
        assert rows.shape == (n, params.feature_dim)
        for i in range(n):
            want = extract_step(pos[i], vel[i], np.delete(pos, i, axis=0),
                                np.delete(vel, i, axis=0), active_walls(scene, module_ids[i]),
                                active_exit(scene, module_ids[i]), params)
            assert rows[i].tobytes() == want.tobytes(), f"row {i} differs"
        # Random groups: each row sees only its own group as neighbours.  The
        # equal-distance pair in one sector of pedestrian 0 is split, so a
        # neighbour leaking in from the other group would win the tie.
        groups = rng.integers(-2, 3, size=n) * 7
        if n > 8:
            groups[7], groups[8] = groups[0] + 1, groups[0]
        grouped = extract_batch(pos, vel, table_rows, scene, params, groups=groups)
        for i in range(n):
            mates = np.flatnonzero(groups == groups[i])
            mates = mates[mates != i]
            want = extract_step(pos[i], vel[i], pos[mates], vel[mates],
                                active_walls(scene, module_ids[i]),
                                active_exit(scene, module_ids[i]), params)
            assert grouped[i].tobytes() == want.tobytes(), f"grouped row {i} differs"
    # Two interleaved copies of the crowd in two groups: every entry's exact
    # twin, at distance 0, is in the other group.
    twins = extract_batch(np.repeat(pos, 2, axis=0), np.repeat(vel, 2, axis=0),
                          np.repeat(table_rows, 2), scene, params, groups=np.tile([1, 0], n))
    assert twins[0::2].tobytes() == twins[1::2].tobytes() == rows.tobytes()
    # Entries without a module are neighbours only: the others' rows stay the same.
    keep = rng.random(n) < 0.5
    partial = extract_batch(pos, vel, np.where(keep, table_rows, -1), scene, params)
    assert partial.tobytes() == rows[keep].tobytes()


def test_extract_batch_of_nobody_is_empty() -> None:
    rows = extract_batch(np.zeros((0, 2)), np.zeros((0, 2)), [], _open_scene(), P18)
    assert rows.shape == (0, P18.feature_dim)

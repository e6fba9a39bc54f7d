"""Force arithmetic, desired directions, and baseline integration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdsim.features import ExtractionParams
from crowdsim.geometry import (
    ModuleRegion,
    Scene,
    active_walls,
)
from crowdsim.scene_library import make_corner, make_corridor
from crowdsim.simulate import PedestrianSeed, SimulationConfig
from crowdsim.social_force import (
    SFParams,
    desired_directions,
    draw_desired_speeds,
    sf_acceleration,
    sf_run,
    shrunk_exit,
)

from oracles import (active_exit, closest_point_on_segment, desired_direction,
                     point_segment_distance)
from oracles import scalar_first_wall_crossing as first_wall_crossing
from oracles import scalar_point_in_module as point_in_module

PARAMS = ExtractionParams(ray_deg=45.0, vision_range=20.0, window=8)
NO_WALLS = np.zeros((0, 2, 2))
NO_PEDS = np.zeros((0, 2))


def _config(scene, seeds, dt=0.04, max_steps=400) -> SimulationConfig:
    return SimulationConfig(scene=scene, dt=dt, pedestrians=tuple(seeds),
                            params=PARAMS, max_steps=max_steps)


def _stationary_seed(ped_id, point, entry=0, w=8) -> PedestrianSeed:
    return PedestrianSeed(ped_id=ped_id, entry_step=entry,
                          positions=np.tile(np.asarray(point, dtype=float), (w, 1)))


def _two_corridor_scene() -> Scene:
    a = ModuleRegion(
        id="a", kind="corridor",
        boundary=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]),
        walls=np.array([[[0.0, 0.0], [4.0, 0.0]], [[0.0, 2.0], [4.0, 2.0]]]),
        exit=np.array([[4.0, 0.0], [4.0, 2.0]]),
    )
    b = ModuleRegion(
        id="b", kind="corridor",
        boundary=np.array([[4.0, 0.0], [8.0, 0.0], [8.0, 2.0], [4.0, 2.0]]),
        walls=np.array([[[4.0, 0.0], [8.0, 0.0]], [[4.0, 2.0], [8.0, 2.0]]]),
        exit=np.array([[8.0, 0.0], [8.0, 2.0]]),
        virtual_walls=np.array([[[4.0, 0.0], [4.0, 2.0]]]),
    )
    scene = Scene(modules=(a, b), successor={"a": "b", "b": None})
    scene.validate()
    return scene


def test_lone_pedestrian_driving_term():
    a = sf_acceleration((0, 0), (0, 0), 1.4, (1, 0), NO_PEDS, NO_PEDS, NO_WALLS,
                        SFParams())
    assert np.allclose(a, [2.8, 0.0], atol=1e-12)


def test_equilibrium_at_desired_velocity():
    a = sf_acceleration((0, 0), (1.4, 0), 1.4, (1, 0), NO_PEDS, NO_PEDS, NO_WALLS,
                        SFParams())
    assert np.allclose(a, [0.0, 0.0], atol=1e-12)


def test_far_pair_repulsion_negligible():
    p = SFParams()
    # separation beyond contact + 10 B: exponential term is tiny
    d = 2 * p.radius + 10 * p.B + 0.01
    base = sf_acceleration((0, 0), (0, 0), 1.4, (1, 0), NO_PEDS, NO_PEDS, NO_WALLS, p)
    with_other = sf_acceleration((0, 0), (0, 0), 1.4, (1, 0),
                                 [[d, 0.0]], [[0.0, 0.0]], NO_WALLS, p)
    assert np.linalg.norm(with_other - base) < 1e-3 * np.linalg.norm(base)


def test_contact_pair_force_arithmetic():
    p = SFParams()
    # centers 0.5 m apart: 0.1 m overlap, no relative tangential motion
    a = sf_acceleration((0.5, 0.0), (0, 0), 0.0, (1, 0),
                        [[0.0, 0.0]], [[0.0, 0.0]], NO_WALLS, p)
    expected = (2000.0 * math.exp(0.1 / 0.08) + 1.2e5 * 0.1) / 80.0
    assert np.allclose(a, [expected, 0.0], rtol=1e-12)


def test_wall_force_perpendicular_without_sliding():
    scene = make_corridor()
    walls = active_walls(scene, "corridor")
    a = sf_acceleration((3.0, 0.25), (0, 0), 0.0, (1, 0), NO_PEDS, NO_PEDS,
                        walls, SFParams())
    assert a[0] == 0.0
    assert a[1] > 0.0


def test_wall_friction_opposes_sliding_in_contact():
    scene = make_corridor()
    walls = active_walls(scene, "corridor")
    a = sf_acceleration((3.0, 0.2), (1.0, 0.0), 0.0, (0, 1), NO_PEDS, NO_PEDS,
                        walls, SFParams())
    assert a[0] < 0.0


def test_overlapping_pedestrians_warn_and_stay_finite():
    with pytest.warns(RuntimeWarning, match="overlapping"):
        a = sf_acceleration((1.0, 1.0), (0, 0), 1.4, (1, 0),
                            [[1.0, 1.0]], [[0.0, 0.0]], NO_WALLS, SFParams())
    assert np.all(np.isfinite(a))


def test_desired_direction_straight_corridor():
    scene = make_corridor()
    exit_seg = active_exit(scene, "corridor")
    d = desired_direction((2.0, 1.5), exit_seg, 0.3)
    assert np.allclose(d, [1.0, 0.0], atol=1e-12)


def test_desired_direction_degenerate_keeps_previous():
    exit_seg = np.array([[6.0, 0.0], [6.0, 3.0]])
    at_target = desired_direction((6.0, 1.5), exit_seg, 0.3, previous=np.array([0.0, 1.0]))
    assert np.allclose(at_target, [0.0, 1.0])
    assert np.allclose(desired_direction((6.0, 1.5), exit_seg, 0.3), [1.0, 0.0])


def test_shrunk_exit_endpoints():
    seg = np.array([[6.0, 0.0], [6.0, 3.0]])
    s = shrunk_exit(seg, 0.3)
    assert np.allclose(s, [[6.0, 0.3], [6.0, 2.7]])
    tiny = shrunk_exit(np.array([[0.0, 0.0], [0.5, 0.0]]), 0.3)
    assert np.allclose(tiny[0], tiny[1])


@settings(max_examples=200)
@given(m=st.integers(1, 16), radius=st.sampled_from([0.2, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_desired_directions_equal_the_scalar_per_row(m, radius, seed) -> None:
    rng = np.random.default_rng(seed)
    # exits shorter than 2 * radius shrink to their midpoint
    length = rng.choice([0.1, 2.0 * radius - 1e-9, 2.0 * radius, 1.0, 4.0], m)
    angle = rng.uniform(0.0, 2.0 * np.pi, m)
    start = rng.uniform(-3.0, 3.0, (m, 2))
    exits = np.stack([start, start + length[:, None] * np.stack(
        [np.cos(angle), np.sin(angle)], axis=1)], axis=1)
    targets = np.array([shrunk_exit(e, radius) for e in exits])
    positions = rng.uniform(-4.0, 4.0, (m, 2))
    # some pedestrians stand on their target segment: an endpoint or a point along it
    along = rng.choice([0.0, 0.5, 1.0, rng.uniform()], (m, 1))
    on_target = rng.random(m) < 0.4
    positions[on_target] = (targets[:, 0] + along * (targets[:, 1] - targets[:, 0]))[on_target]
    previous = [rng.normal(size=2) if rng.random() < 0.5 else None for _ in range(m)]
    got = desired_directions(positions, targets,
                             [(1.0, 0.0) if e is None else e for e in previous])
    assert got.shape == (m, 2)
    for i in range(m):
        want = desired_direction(positions[i], exits[i], radius, previous[i])
        assert got[i].tobytes() == want.tobytes(), i


def test_desired_direction_matches_nearest_point_oracle():
    scene = make_corner()
    module = scene.modules[0]
    exit_seg = module.exit
    seg = shrunk_exit(exit_seg, 0.3)
    dense = np.linspace(0.0, 1.0, 20001)
    candidates = seg[0] + dense[:, None] * (seg[1] - seg[0])
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        p = rng.uniform(0.0, 5.0, size=2)
        if point_in_module(scene, p) != "corner":
            continue
        d = desired_direction(p, exit_seg, 0.3)
        dists = np.linalg.norm(candidates - p, axis=1)
        target = candidates[int(np.argmin(dists))]
        gap = np.linalg.norm(target - p)
        # below the oracle's sampling resolution the direction is ill-conditioned
        if gap < 0.1:
            continue
        assert np.allclose(d, (target - p) / gap, atol=1e-3)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12
        checked += 1
    assert checked >= 100


def test_desired_direction_locally_walkable_on_grid():
    scene = make_corner()
    module = scene.modules[0]
    walls = module.walls
    step = 0.04
    checked = 0
    for x in np.arange(0.1, 5.0, 0.2):
        for y in np.arange(0.1, 5.0, 0.2):
            p = np.array([x, y])
            if point_in_module(scene, p) != "corner":
                continue
            clearance = min(point_segment_distance(p, wall) for wall in walls)
            if clearance < 0.06:
                continue
            d = desired_direction(p, module.exit, 0.3)
            assert first_wall_crossing(p, p + d * step, walls) is None
            checked += 1
    assert checked > 200


def test_driving_relaxation_matches_closed_form():
    p = SFParams()
    dt = 0.01
    v = np.zeros(2)
    e = np.array([1.0, 0.0])
    worst = 0.0
    for n in range(1, int(2 * p.tau / dt) + 1):
        a = sf_acceleration((0, 0), v, 1.4, e, NO_PEDS, NO_PEDS, NO_WALLS, p)
        v = v + a * dt
        closed = 1.4 * e * (1.0 - math.exp(-n * dt / p.tau))
        worst = max(worst, float(np.linalg.norm(v - closed)))
    assert worst < 0.01 * 1.4


def test_lone_pedestrian_reaches_desired_speed_after_ten_tau():
    scene = make_corridor(length=15.0)
    seeds = [_stationary_seed("1", (1.0, 1.5))]
    cfg = _config(scene, seeds, dt=0.04, max_steps=8 + 130)
    result = sf_run(cfg, SFParams(), desired_speeds={"1": 1.4})
    traj = result.trajectories[0]
    ten_tau_index = 8 + int(10 * 0.5 / 0.04)
    v = (traj.positions[ten_tau_index] - traj.positions[ten_tau_index - 1]) / 0.04
    assert abs(np.linalg.norm(v) - 1.4) <= 0.014


def test_head_on_pair_stays_mirror_symmetric():
    # symmetric walls about x=0; pedestrians approach head-on along x
    walls = np.array([[[-6.0, 0.0], [6.0, 0.0]], [[-6.0, 3.0], [6.0, 3.0]]])
    p = SFParams()
    dt = 0.04
    pos_a, vel_a = np.array([-1.0, 1.5]), np.array([1.0, 0.0])
    pos_b, vel_b = np.array([1.0, 1.5]), np.array([-1.0, 0.0])
    e_a, e_b = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    for _ in range(100):
        acc_a = sf_acceleration(pos_a, vel_a, 1.4, e_a, [pos_b], [vel_b], walls, p)
        acc_b = sf_acceleration(pos_b, vel_b, 1.4, e_b, [pos_a], [vel_a], walls, p)
        assert abs(acc_a[0] + acc_b[0]) < 1e-9
        assert abs(acc_a[1] - acc_b[1]) < 1e-9
        vel_a = vel_a + acc_a * dt
        vel_b = vel_b + acc_b * dt
        pos_a = pos_a + vel_a * dt
        pos_b = pos_b + vel_b * dt
        assert abs(pos_a[0] + pos_b[0]) < 1e-9
        assert abs(pos_a[1] - pos_b[1]) < 1e-9


def test_sf_run_mirrored_pair_in_corridor():
    scene = make_corridor()
    seeds = [_stationary_seed("a", (1.0, 1.8)), _stationary_seed("b", (1.0, 1.2))]
    cfg = _config(scene, seeds, max_steps=300)
    result = sf_run(cfg, SFParams(), desired_speeds={"a": 1.4, "b": 1.4})
    by_id = {t.ped_id: t for t in result.trajectories}
    a, b = by_id["a"], by_id["b"]
    n = min(len(a.positions), len(b.positions))
    assert np.max(np.abs(a.positions[:n, 0] - b.positions[:n, 0])) < 1e-9
    assert np.max(np.abs((a.positions[:n, 1] - 1.5) + (b.positions[:n, 1] - 1.5))) < 1e-9
    assert a.exited and b.exited


def test_zero_desired_speed_stays_put():
    scene = make_corridor()
    seeds = [_stationary_seed("1", (3.0, 1.5))]
    cfg = _config(scene, seeds, max_steps=100)
    result = sf_run(cfg, SFParams(), desired_speeds={"1": 0.0})
    traj = result.trajectories[0]
    assert traj.truncated
    drift = np.linalg.norm(traj.positions - np.array([3.0, 1.5]), axis=1)
    assert np.max(drift) < 1e-3


def test_desired_speed_draws_clamped_and_deterministic():
    params = SFParams(desired_speed_std=5.0)
    ids = [str(i) for i in range(400)]
    speeds = draw_desired_speeds(ids, np.random.default_rng(2), params)
    values = np.array(list(speeds.values()))
    assert values.min() >= 0.5 and values.max() <= 2.5
    assert values.min() == 0.5 and values.max() == 2.5
    again = draw_desired_speeds(ids, np.random.default_rng(2), params)
    assert speeds == again


def test_sf_run_requires_speed_source():
    scene = make_corridor()
    cfg = _config(scene, [_stationary_seed("1", (2.0, 1.5))], max_steps=10)
    with pytest.raises(ValueError, match="rng or explicit"):
        sf_run(cfg, SFParams())


def test_sf_run_output_contract():
    scene = make_corridor()
    seeds = [_stationary_seed("a", (4.5, 1.4)), _stationary_seed("b", (4.5, 1.9), entry=4)]
    cfg = _config(scene, seeds, max_steps=500)
    result = sf_run(cfg, SFParams(), rng=np.random.default_rng(0))
    assert {t.ped_id for t in result.trajectories} == {"a", "b"}
    for traj in result.trajectories:
        assert not traj.reset_flags.any()
        assert np.array_equal(traj.positions[:8], np.tile(traj.positions[0], (8, 1)))
        assert traj.exited
    rows = result.to_rows("sf")
    assert all(len(r) == 8 and r[7] == 0 for r in rows)


def test_sf_run_order_independent_and_wall_safe():
    scene = make_corridor()
    seeds = [_stationary_seed("a", (1.0, 2.6)), _stationary_seed("b", (1.3, 2.2)),
             _stationary_seed("c", (1.0, 0.5))]
    speeds = {"a": 1.6, "b": 1.2, "c": 2.0}
    r1 = sf_run(_config(scene, seeds, max_steps=400), SFParams(), desired_speeds=speeds)
    r2 = sf_run(_config(scene, seeds[::-1], max_steps=400), SFParams(), desired_speeds=speeds)
    by_id = {t.ped_id: t for t in r2.trajectories}
    walls = active_walls(scene, "corridor")
    for traj in r1.trajectories:
        assert np.array_equal(traj.positions, by_id[traj.ped_id].positions)
        for i in range(len(traj.positions) - 1):
            assert first_wall_crossing(traj.positions[i], traj.positions[i + 1], walls) is None


def test_sf_run_hands_off_between_modules_and_exits():
    scene = _two_corridor_scene()
    seeds = [_stationary_seed("1", (1.0, 0.8)), _stationary_seed("2", (2.0, 1.3))]
    result = sf_run(_config(scene, seeds, max_steps=600), SFParams(),
                    desired_speeds={"1": 1.4, "2": 1.1})
    for traj in result.trajectories:
        # the last row is the step across the exit, already outside the scene
        inside = traj.positions[:-1]
        assert [point_in_module(scene, p) for p in inside] == list(traj.module_ids[:-1])
        assert traj.module_ids[0] == "a" and traj.module_ids[-1] == "b"
        assert traj.exited and not traj.truncated and traj.positions[-1, 0] >= 8.0
        assert not traj.reset_flags.any()
    assert not result.truncated


def test_sf_run_records_nothing_before_entry_step():
    scene = _two_corridor_scene()
    seeds = [_stationary_seed("early", (1.0, 0.6)),
             _stationary_seed("late", (1.0, 1.4), entry=5)]
    result = sf_run(_config(scene, seeds, max_steps=600), SFParams(),
                    desired_speeds={"early": 1.4, "late": 1.4})
    late = {t.ped_id: t for t in result.trajectories}["late"]
    assert late.entry_step == 5 and late.steps[0] == 5
    assert np.array_equal(late.positions[:8], np.tile([1.0, 1.4], (8, 1)))
    assert min(r[2] for r in result.to_rows("sf") if r[1] == "late") == 5
    assert late.exited and not late.reset_flags.any()


def _sf_acceleration_loop(position, velocity, desired_speed, direction,
                          others_pos, others_vel, walls, params):
    """The force law as one Python loop over pedestrians, then walls: the
    scalar oracle of sf_acceleration."""
    p = np.asarray(position, dtype=float)
    v = np.asarray(velocity, dtype=float)
    e = np.asarray(direction, dtype=float)
    force = np.zeros(2)
    r_sum = 2.0 * params.radius
    for q, vq in zip(np.asarray(others_pos, dtype=float).reshape(-1, 2),
                     np.asarray(others_vel, dtype=float).reshape(-1, 2)):
        diff = p - q
        d = float(np.hypot(*diff))
        if d < 1e-12:
            warnings.warn("overlapping pedestrians: falling back to a fixed "
                          "repulsion direction", RuntimeWarning)
            n, d = np.array([1.0, 0.0]), 0.0
        else:
            n = diff / d
        overlap = r_sum - d if r_sum - d > 0.0 else 0.0
        t = np.array([-n[1], n[0]])
        force += (params.A * np.exp((r_sum - d) / params.B) + params.k * overlap) * n
        force += params.kappa * overlap * float((vq - v) @ t) * t
    for wall in np.asarray(walls, dtype=float).reshape(-1, 2, 2):
        c, d = closest_point_on_segment(p, wall[0], wall[1])
        if d < 1e-12:
            warnings.warn("pedestrian centered on a wall: falling back to a fixed "
                          "repulsion direction", RuntimeWarning)
            n, d = np.array([1.0, 0.0]), 0.0
        else:
            n = (p - c) / d
        overlap = params.radius - d if params.radius - d > 0.0 else 0.0
        t = np.array([-n[1], n[0]])
        force += (params.A * np.exp((params.radius - d) / params.B)
                  + params.k * overlap) * n
        force += -params.kappa * overlap * float(v @ t) * t
    return (desired_speed * e - v) / params.tau + force / params.mass


def _warning_texts(fn, *args) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sorted({str(w.message) for w in caught})


@settings(max_examples=300)
@given(n_others=st.integers(0, 12), n_walls=st.integers(0, 8),
       spread=st.sampled_from([0.05, 0.3, 1.5]), overlap=st.booleans(),
       on_wall=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sf_acceleration_equals_the_loop_bitwise(n_others, n_walls, spread, overlap,
                                                  on_wall, seed) -> None:
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1.0, 1.0, size=2)
    v = rng.normal(size=2)
    e = rng.normal(size=2)
    others = p + spread * rng.normal(size=(n_others, 2))
    others_vel = rng.normal(size=(n_others, 2))
    walls = rng.uniform(-2.0, 2.0, size=(n_walls, 2, 2))
    if overlap and n_others:
        others[rng.integers(n_others)] = p                  # a co-located pedestrian
    if on_wall and n_walls:
        walls[0] = [p, p]                                   # a zero-length wall at the subject
        if n_walls > 1:
            half = rng.normal(size=2)
            walls[1] = [p - half, p + half]                 # the subject mid-wall
    args = (p, v, 1.3, e, others, others_vel, walls, SFParams())
    got, got_warnings = _warning_texts(sf_acceleration, *args)
    want, want_warnings = _warning_texts(_sf_acceleration_loop, *args)
    assert got.tobytes() == want.tobytes()
    assert got_warnings == want_warnings


def test_sf_acceleration_warns_once_per_kind_on_a_wall() -> None:
    wall = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    with pytest.warns(RuntimeWarning, match="centered on a wall"):
        a = sf_acceleration((1.0, 0.0), (0, 0), 1.4, (1, 0), NO_PEDS, NO_PEDS, wall, SFParams())
    assert np.all(np.isfinite(a))

"""Synchronous stepping, resets, transitions, and exit handling."""

from dataclasses import fields

import numpy as np
import pytest

import crowdsim.simulate
import crowdsim.social_force
from crowdsim.features import ExtractionParams
from crowdsim.geometry import (
    ModuleRegion,
    Scene,
    active_walls,
    project_on_segments,
    segment_terms,
)
from crowdsim.ingest import Trajectory
from crowdsim.network import NetworkConfig, VelocityPredictor
from crowdsim.scene_library import make_bottleneck, make_composite, make_corridor
from crowdsim.simulate import (
    PedestrianSeed,
    SimulationConfig,
    Simulator,
    run_simulation,
    seeds_from_run,
    snap_to_module,
)
from crowdsim.social_force import SFParams, _SocialForceSimulator, draw_desired_speeds, sf_run

from oracles import (
    ConstantVelocityOracle,
    DequeWindowSimulator,
    ZeroVelocityOracle,
    active_exit,
    closest_point_on_segment,
    extract_step,
    point_segment_distance,
    snapshot_others,
)
from oracles import scalar_first_wall_crossing as first_wall_crossing
from oracles import scalar_point_in_module as point_in_module

PARAMS = ExtractionParams(ray_deg=45.0, vision_range=20.0, window=8)


class _DriftOracle:
    """Row-wise model reading the window: damped last velocity plus a bias."""

    def __init__(self, bias=(0.05, 0.02)):
        self.bias = np.asarray(bias, dtype=float)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x[:, -1, :2] * 0.9 + self.bias


class _SpikeOracle:
    """Emits an upward lurch when the window shows a stationary pedestrian."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 2))
        stationary = np.all(x[:, :, :2] == 0.0, axis=(1, 2))
        out[stationary] = (0.0, 5.0)
        return out


class _HashOracle:
    """Deterministic direction scramble keyed on the last position."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        last_vel = x[:, -1, :2]
        angle = np.sin(x[:, -1, 2] * 37.0) * np.pi
        return np.column_stack([np.cos(angle), np.sin(angle)]) * 2.0 + last_vel * 0.1


def _stationary_seed(ped_id: str, point, entry: int = 0, w: int = 8) -> PedestrianSeed:
    return PedestrianSeed(ped_id=ped_id, entry_step=entry,
                          positions=np.tile(np.asarray(point, dtype=float), (w, 1)))


def _moving_seed(ped_id: str, start, velocity, dt: float, entry: int = 0,
                 w: int = 8) -> PedestrianSeed:
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    pos = start + np.outer(np.arange(w), velocity * dt)
    return PedestrianSeed(ped_id=ped_id, entry_step=entry, positions=pos)


def _config(scene, seeds, dt=0.04, max_steps=200) -> SimulationConfig:
    return SimulationConfig(scene=scene, dt=dt, pedestrians=tuple(seeds),
                            params=PARAMS, max_steps=max_steps)


def _two_corridor_scene() -> Scene:
    a = ModuleRegion(
        id="a", kind="corridor",
        boundary=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]),
        walls=np.array([[[0.0, 0.0], [4.0, 0.0]], [[0.0, 2.0], [4.0, 2.0]]]),
        exit=np.array([[4.0, 0.0], [4.0, 2.0]]),
        entries=np.array([[[0.0, 0.0], [0.0, 2.0]]]),
    )
    b = ModuleRegion(
        id="b", kind="corridor",
        boundary=np.array([[4.0, 0.0], [8.0, 0.0], [8.0, 2.0], [4.0, 2.0]]),
        walls=np.array([[[4.0, 0.0], [8.0, 0.0]], [[4.0, 2.0], [8.0, 2.0]]]),
        exit=np.array([[8.0, 0.0], [8.0, 2.0]]),
        entries=np.array([[[4.0, 0.0], [4.0, 2.0]]]),
        virtual_walls=np.array([[[4.0, 0.0], [4.0, 2.0]]]),
    )
    scene = Scene(modules=(a, b), successor={"a": "b", "b": None})
    scene.validate()
    return scene


def test_constant_oracle_advances_by_v_dt():
    scene = make_corridor()
    seeds = [_moving_seed("1", (0.5, 1.5), (1.0, 0.0), 0.04)]
    result = run_simulation(_config(scene, seeds, dt=0.04, max_steps=400),
                            ConstantVelocityOracle((1.0, 0.0)))
    traj = result.trajectories[0]
    diffs = np.diff(traj.positions, axis=0)
    assert np.allclose(diffs[:, 0], 0.04, atol=1e-12)
    assert np.allclose(diffs[:, 1], 0.0, atol=1e-12)
    assert traj.exited and not traj.truncated


def test_seeded_prefix_fidelity_exact():
    scene = make_corridor()
    seed = _moving_seed("7", (1.0, 1.2), (0.8, 0.1), 0.04, entry=5)
    result = run_simulation(_config(scene, [seed], max_steps=300),
                            _DriftOracle())
    traj = result.trajectories[0]
    assert traj.entry_step == 5
    assert traj.steps[0] == 5
    assert np.array_equal(traj.positions[:8], seed.positions)


def test_zero_velocity_oracle_is_fixed_point():
    scene = make_corridor()
    seeds = [_stationary_seed("1", (2.0, 1.0)), _stationary_seed("2", (3.0, 2.0))]
    result = run_simulation(_config(scene, seeds, max_steps=40), ZeroVelocityOracle())
    assert result.truncated
    for traj, point in zip(result.trajectories, [(2.0, 1.0), (3.0, 2.0)]):
        assert traj.truncated and not traj.exited
        assert np.array_equal(traj.positions, np.tile(point, (len(traj.positions), 1)))


def test_processing_order_independence_bitwise():
    scene = make_corridor()
    seeds = [
        _moving_seed("a", (0.6, 1.0), (0.9, 0.05), 0.04),
        _moving_seed("b", (1.1, 1.2), (0.8, -0.04), 0.04),
        _moving_seed("c", (0.8, 1.6), (0.85, 0.0), 0.04, entry=3),
        _stationary_seed("d", (2.5, 1.5)),
    ]
    base = run_simulation(_config(scene, seeds, max_steps=120), _DriftOracle())
    permuted = run_simulation(_config(scene, seeds[::-1], max_steps=120), _DriftOracle())
    by_id = {t.ped_id: t for t in permuted.trajectories}
    assert len(base.trajectories) == 4
    for traj in base.trajectories:
        other = by_id[traj.ped_id]
        assert np.array_equal(traj.positions, other.positions)
        assert traj.module_ids == other.module_ids
        assert np.array_equal(traj.reset_flags, other.reset_flags)


def test_determinism_same_config_same_output():
    scene = make_corridor()
    seeds = [_moving_seed("a", (0.6, 1.0), (0.9, 0.05), 0.04),
             _moving_seed("b", (1.0, 2.0), (0.7, -0.1), 0.04)]
    r1 = run_simulation(_config(scene, seeds, max_steps=150), _DriftOracle())
    r2 = run_simulation(_config(scene, seeds, max_steps=150), _DriftOracle())
    for t1, t2 in zip(r1.trajectories, r2.trajectories):
        assert np.array_equal(t1.positions, t2.positions)


def test_terminal_exit_deactivates_and_step_count_matches_kinematics():
    scene = make_corridor()
    dt = 0.0625
    x0, speed = 0.53, 1.0
    seeds = [_moving_seed("1", (x0, 1.5), (speed, 0.0), dt)]
    result = run_simulation(_config(scene, seeds, dt=dt, max_steps=400),
                            ConstantVelocityOracle((speed, 0.0)))
    traj = result.trajectories[0]
    # independent kinematic count of the first step whose segment reaches x=6
    k, x = 0, x0
    while x < 6.0:
        k += 1
        x = x0 + k * speed * dt
    assert traj.exited
    assert len(traj.positions) == k + 1
    assert traj.positions[-1, 0] >= 6.0
    assert traj.positions[-2, 0] < 6.0


def test_empty_pedestrian_list_returns_empty():
    scene = make_corridor()
    result = run_simulation(_config(scene, [], max_steps=50), ZeroVelocityOracle())
    assert result.trajectories == ()
    assert not result.truncated


def test_late_entry_waits_for_entry_step():
    scene = make_corridor()
    seeds = [_moving_seed("z", (0.5, 1.5), (1.0, 0.0), 0.04, entry=6)]
    result = run_simulation(_config(scene, seeds, max_steps=400),
                            ConstantVelocityOracle((1.0, 0.0)))
    traj = result.trajectories[0]
    assert traj.steps[0] == 6
    assert np.array_equal(traj.positions[:8], seeds[0].positions)


def test_wall_push_triggers_guided_reset_along_wall():
    scene = make_corridor()
    seeds = [_stationary_seed("1", (2.0, 2.98))]
    result = run_simulation(_config(scene, seeds, max_steps=60),
                            ConstantVelocityOracle((0.0, 1.0)))
    traj = result.trajectories[0]
    assert traj.reset_flags.any()
    # guided motion goes +x (toward the exit); post-seed positions stay clear
    assert traj.positions[-1, 0] > 2.0
    assert np.all(traj.positions[8:, 1] <= 3.0 - 0.05 + 1e-9)
    walls = active_walls(scene, "corridor")
    for a, b in zip(traj.positions[:-1], traj.positions[1:]):
        assert first_wall_crossing(a, b, walls) is None


def test_stationary_reset_uses_floor_speed():
    scene = make_corridor()
    seeds = [_stationary_seed("1", (2.0, 2.95))]
    sim = Simulator(_config(scene, seeds, max_steps=12), _SpikeOracle())
    result = sim.run()
    traj = result.trajectories[0]
    assert traj.reset_flags.any()
    steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
    moved = steps[steps > 1e-9]
    assert moved.size > 0
    # guided displacement per step equals the 0.1 m/s floor times dt
    assert np.allclose(moved, 0.1 * 0.04, atol=1e-12)


def test_adversarial_oracle_never_crosses_walls():
    scene = make_bottleneck()
    seeds = [
        _moving_seed("a", (-3.0, 0.5), (0.8, 0.0), 0.04),
        _moving_seed("b", (-2.5, -0.8), (0.7, 0.1), 0.04),
        _stationary_seed("c", (-1.5, 1.2)),
    ]
    result = run_simulation(_config(scene, seeds, max_steps=250), _HashOracle())
    assert any(t.reset_flags.any() for t in result.trajectories)
    for traj in result.trajectories:
        assert np.all(np.isfinite(traj.positions))
        for i in range(len(traj.positions) - 1):
            walls = active_walls(scene, traj.module_ids[i])
            crossing = first_wall_crossing(traj.positions[i], traj.positions[i + 1], walls)
            assert crossing is None, (traj.ped_id, i, traj.positions[i], traj.positions[i + 1])


def test_module_transition_switches_walls_and_exit():
    scene = _two_corridor_scene()
    seeds = [_moving_seed("1", (3.0, 1.0), (1.0, 0.0), 0.04)]
    result = run_simulation(_config(scene, seeds, dt=0.04, max_steps=600),
                            ConstantVelocityOracle((1.0, 0.0)))
    traj = result.trajectories[0]
    mods = np.asarray(traj.module_ids)
    assert mods[0] == "a"
    assert traj.exited
    assert mods[-1] == "b"
    switch = np.argmax(mods == "b")
    # module recomputed from position: the shared border (within the geometry
    # tolerance) still belongs to module a by traversal order
    assert traj.positions[switch, 0] > 4.0
    assert traj.positions[switch - 1, 0] <= 4.0 + 1e-9
    # deterministic per position
    for i, m in enumerate(mods):
        assert point_in_module(scene, traj.positions[i]) == m


def test_junction_crossing_is_not_a_wall_violation():
    scene = _two_corridor_scene()
    seeds = [_moving_seed("1", (3.5, 1.0), (1.2, 0.0), 0.04)]
    result = run_simulation(_config(scene, seeds, max_steps=400),
                            ConstantVelocityOracle((1.2, 0.0)))
    traj = result.trajectories[0]
    assert traj.exited
    assert not traj.reset_flags.any()


def test_config_validation_rejects_bad_seeds():
    scene = make_corridor()
    with pytest.raises(ValueError, match="outside"):
        _config(scene, [_stationary_seed("1", (9.5, 1.0))])
    with pytest.raises(ValueError, match="duplicate"):
        _config(scene, [_stationary_seed("1", (2.0, 1.0)),
                        _stationary_seed("1", (3.0, 1.0))])
    with pytest.raises(ValueError, match="seed positions"):
        _config(scene, [PedestrianSeed("1", 0, np.tile([2.0, 1.0], (5, 1)))])


def test_config_names_the_first_seed_error_with_plain_floats():
    scene = make_corridor()
    positions = np.tile([2.0, 1.0], (8, 1))
    positions[5:] = (7.25, 1.0), (6.5, 1.5), (0.5, 9.0)         # the corridor ends at x = 6
    outside = PedestrianSeed("a", 0, positions)
    with pytest.raises(ValueError) as err:
        _config(scene, [_stationary_seed("z", (2.0, 1.0)), outside,
                        _stationary_seed("z", (3.0, 1.0))])
    assert str(err.value) == "pedestrian a: seed position (7.25, 1.0) lies outside every module"
    # seeds are checked in order: an earlier duplicate or short seed is named first
    with pytest.raises(ValueError, match="duplicate pedestrian id 'z'"):
        _config(scene, [_stationary_seed("z", (2.0, 1.0)), _stationary_seed("z", (3.0, 1.0)),
                        outside])
    with pytest.raises(ValueError, match="pedestrian b: expected 8 seed positions, got 5"):
        _config(scene, [PedestrianSeed("b", 0, np.tile([2.0, 1.0], (5, 1))), outside])


def test_seeds_from_run_shifts_entries():
    def traj(ped, t0, n):
        pos = np.column_stack([np.linspace(1, 2, n), np.full(n, 1.0)])
        vel = np.full_like(pos, np.nan)
        vel[1:] = np.diff(pos, axis=0) / 0.04
        return Trajectory(ped_id=ped, t0=t0, dt=0.04, positions=pos, velocities=vel)

    seeds = seeds_from_run([traj("a", 30, 12), traj("b", 34, 9), traj("c", 40, 5)],
                           window=8)
    assert [s.ped_id for s in seeds] == ["a", "b"]
    assert [s.entry_step for s in seeds] == [0, 4]
    assert seeds[0].positions.shape == (8, 2)


def test_result_rows_format():
    scene = make_corridor()
    seeds = [_moving_seed("p", (5.6, 1.5), (1.0, 0.0), 0.04)]
    result = run_simulation(_config(scene, seeds, max_steps=100),
                            ConstantVelocityOracle((1.0, 0.0)))
    rows = result.to_rows("E080-C300")
    assert rows[0][:3] == ["E080-C300", "p", 0]
    assert rows[0][3] == 0.0
    assert rows[1][3] == pytest.approx(0.04)
    assert all(len(r) == 8 for r in rows)
    assert all(r[6] == "corridor" for r in rows)


class _ScalarFeatureSimulator(DequeWindowSimulator):
    """Extracts each pedestrian's features on its own with extract_step, in
    the step and in window rewrites."""

    def _step_features(self, active, pos, vel):
        cfg = self.config
        snap = self._snapshots[-1][1]               # the reference's own record of pos, vel
        return np.array([
            extract_step(p, v, *snapshot_others(snap, ped.ped_id),
                         active_walls(cfg.scene, ped.module_id),
                         active_exit(cfg.scene, ped.module_id), cfg.params)
            for ped, p, v in zip(active, pos, vel)])

    def _flush_rewrites(self):
        cfg, t = self.config, self.step_index
        by_step = dict(self._snapshots)
        for slot, s, *_ in self._rewrites:
            ped = self._peds[slot]
            module_id = ped.modules[t - ped.entry]       # when it reset
            ped.window[s - t - 1] = extract_step(
                ped.positions[s - ped.entry], ped.velocities[s - ped.entry],
                *snapshot_others(by_step[s], ped.ped_id), active_walls(cfg.scene, module_id),
                active_exit(cfg.scene, module_id), cfg.params)
        self._rewrites.clear()


def _random_seeds(scene, rng, n, prefix, start_lo, start_hi, velocity, max_entry):
    """n moving seeds whose every window position lies inside the scene."""
    seeds = []
    while len(seeds) < n:
        seed = _moving_seed(f"{prefix}{len(seeds):02d}", rng.uniform(start_lo, start_hi),
                            velocity(rng), 0.04, entry=int(rng.integers(0, max_entry)))
        if all(point_in_module(scene, p) is not None for p in seed.positions):
            seeds.append(seed)
    return seeds


def _corridor_walkback_crowd() -> SimulationConfig:
    """Eight pedestrians in module a of the two-corridor scene walking back
    toward its open entry edge, where their moves leave every module."""
    scene = _two_corridor_scene()
    return _config(scene, _random_seeds(scene, np.random.default_rng(7), 8, "q", (0.6, 0.3),
                                        (1.5, 1.7), lambda rng: (-1.0, rng.normal(scale=0.3)),
                                        4), max_steps=40)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_features_give_the_scalar_trajectories_bitwise():
    """Two crowds under a small random TCN whose head bias walks them out:
    in composite into walls (resets from the wall guard), and in module a
    of the two-corridor scene back through its open entry edge (resets from
    stranded moves, _blocked with no wall, which the step-end flush must
    also pick up)."""
    composite = make_composite()
    walkback = _corridor_walkback_crowd()
    corridors = walkback.scene
    lo = np.min([m.boundary.min(axis=0) for m in composite.modules], axis=0)
    hi = np.max([m.boundary.max(axis=0) for m in composite.modules], axis=0)
    cases = [
        (_random_seeds(composite, np.random.default_rng(5), 16, "p", lo, hi,
                       lambda rng: rng.normal(scale=0.8, size=2), 6), composite, (1.5, -0.5)),
        (walkback.pedestrians, corridors, (-2.0, 0.0)),
    ]
    for seeds, scene, bias in cases:
        net = VelocityPredictor(NetworkConfig(input_dim=PARAMS.feature_dim, window=8,
                                              tcn_channels=(4, 4), kernel_size=2,
                                              dilations=(1, 2)), np.random.default_rng(6))
        net.head.b[:] = bias
        config = _config(scene, seeds, max_steps=40)
        rewritten = []                  # pedestrians whose rows each flush rewrites
        stranded_rows = []              # rows queued by each stranded _blocked call

        class Recording(Simulator):
            def _blocked(self, ped, wall, t):
                queued = len(self._rewrites)
                out = super()._blocked(ped, wall, t)
                if wall is None:
                    stranded_rows.append(len(self._rewrites) - queued)
                return out

            def _flush_rewrites(self):
                rewritten.append(len({slot for slot, *_ in self._rewrites}))
                super()._flush_rewrites()

        batched = Recording(config, net).run()
        scalar = _ScalarFeatureSimulator(config, net).run()
        assert sum(t.reset_flags.sum() for t in batched.trajectories) > 0
        assert max(rewritten) >= 2      # one grouped call serves several pedestrians
        if scene is corridors:
            assert sum(stranded_rows) > 0
        assert len(batched.trajectories) == len(scalar.trajectories) == len(seeds)
        for a, b in zip(batched.trajectories, scalar.trajectories):
            assert a.positions.tobytes() == b.positions.tobytes()
            assert a.module_ids == b.module_ids
            assert np.array_equal(a.reset_flags, b.reset_flags)
            assert (a.exited, a.truncated) == (b.exited, b.truncated)


def test_non_finite_prediction_is_a_named_error():
    scene = make_corridor()
    seeds = [_stationary_seed("a", (1.0, 1.0)), _stationary_seed("b", (2.0, 1.5), entry=2)]
    with pytest.raises(ValueError, match="non-finite velocity for pedestrian 'a' at step 7"):
        run_simulation(_config(scene, seeds), ConstantVelocityOracle((np.nan, 0.0)))
    with pytest.raises(ValueError, match="pedestrian 'a' at step 7"):
        run_simulation(_config(scene, seeds), ConstantVelocityOracle((0.0, np.inf)))


def _snap_to_module_loop(scene, p, tolerance=0.02):
    """Edge-by-edge snap: the scalar oracle of snap_to_module."""
    best = None
    for mod in scene.modules:
        boundary = mod.boundary
        for i in range(len(boundary)):
            c, d = closest_point_on_segment(p, boundary[i], boundary[(i + 1) % len(boundary)])
            if d <= tolerance and (best is None or d < best[0]):
                best = (d, c, mod.id)
    return None if best is None else (best[1], best[2])


def test_snap_to_module_matches_the_edge_loop():
    scene = make_composite()
    rng = np.random.default_rng(3)
    verts = np.concatenate([m.boundary for m in scene.modules])
    points = np.concatenate([verts + rng.uniform(-0.03, 0.03, (len(verts), 2)),
                             verts + (0.02, 0.0), verts - (0.0, 0.02),
                             rng.uniform((-4.5, -2.5), (8.0, 7.5), (400, 2))])
    snapped = 0
    for p in points:
        got, want = snap_to_module(scene, p), _snap_to_module_loop(scene, p)
        assert (got is None) == (want is None), tuple(p)
        if got is not None:
            snapped += 1
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    assert snapped > len(verts)


def _path_clear_loop(scene, prev, points, walls, violated) -> bool:
    """Move-by-move and point-by-point: the scalar oracle of Simulator._path_clear."""
    chain = [prev] + points
    for a, b in zip(chain[:-1], chain[1:]):
        if np.hypot(*(b - a)) > 1e-12 and first_wall_crossing(a, b, walls) is not None:
            return False
    for p in points:
        if point_segment_distance(p, violated) < 0.05 - 1e-9:
            return False
        if point_in_module(scene, p) is None:
            return False
    return True


def test_path_clear_matches_the_scalar_loop():
    scene = make_composite()
    sim = Simulator(_config(scene, []), ZeroVelocityOracle())
    rng = np.random.default_rng(8)
    verdicts = []
    for _ in range(600):
        module = scene.modules[int(rng.integers(len(scene.modules)))]
        walls = active_walls(scene, module.id)
        violated = walls[int(rng.integers(len(walls)))]
        # a guided path along the violated wall, near the clearance distance
        along = violated[1] - violated[0]
        normal = np.array([-along[1], along[0]]) / np.hypot(*along)
        start = violated[0] + rng.uniform(-0.1, 1.1) * along
        offset = rng.choice([0.05, 0.05 - 2e-9, 0.049, 0.06, -0.05, 0.5])
        step = rng.choice([0.0, 0.04, 0.3]) * rng.normal(size=2)
        points = [start + offset * normal + j * step for j in range(int(rng.integers(1, 8)))]
        prev = points[0] - rng.choice([0.0, 0.05]) * rng.normal(size=2)
        want = _path_clear_loop(scene, prev, points, walls, violated)
        assert sim._path_clear(prev, points, module.id, violated) == want
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


def _composite_crowd(n: int, seed: int) -> SimulationConfig:
    scene = make_composite()
    rng = np.random.default_rng(seed)
    lo = np.min([m.boundary.min(axis=0) for m in scene.modules], axis=0)
    hi = np.max([m.boundary.max(axis=0) for m in scene.modules], axis=0)
    seeds = []
    while len(seeds) < n:
        seed = _moving_seed(f"p{len(seeds):02d}", rng.uniform(lo, hi),
                            rng.normal(scale=0.8, size=2), 0.04, entry=int(rng.integers(0, 10)))
        if all(point_in_module(scene, p) is not None for p in seed.positions):
            seeds.append(seed)
    return _config(scene, seeds, max_steps=60)


def test_predictor_input_is_the_stack_of_the_moved_windows():
    # The (n, w, D) input is gathered from the window ring in one call; at
    # every step it must be the reference's stack of the moved pedestrians'
    # own deques (id order), byte for byte, through window rewrites too.
    class Recorded(_DriftOracle):
        def __init__(self):
            super().__init__()
            self.inputs = []

        def predict(self, x):
            self.inputs.append(x.copy())
            return super().predict(x)

    config = _composite_crowd(12, 3)
    ring, deques = Recorded(), Recorded()
    result = Simulator(config, ring).run()
    DequeWindowSimulator(config, deques).run()
    assert sum(t.reset_flags.sum() for t in result.trajectories) > 0
    assert len(ring.inputs) == len(deques.inputs) and max(map(len, ring.inputs)) >= 2
    for got, want in zip(ring.inputs, deques.inputs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lag", [0, 1], ids=["same_step", "next_step"])
def test_rewrite_rows_read_the_states_recorded_at_their_step(lag):
    # Two pedestrians 0.6 m apart, within each other's perception radius,
    # walk into the corridor's lower wall and reset every other step,
    # together (lag 0) or in turn (lag 1: the second starts one step's
    # drop higher).  A
    # rewrite row of step s must see its neighbour as recorded at s, not
    # the neighbour's rewritten history: every predictor input equals the
    # reference's, which extracts against its own copies of each step.
    class Recorded(ConstantVelocityOracle):
        def __init__(self):
            super().__init__((0.5, -1.0))
            self.inputs = []

        def predict(self, x):
            self.inputs.append(x.copy())
            return super().predict(x)

    flushed = []                    # the slots of each flush with rewrites

    class Flushes(Simulator):
        def _flush_rewrites(self):
            if self._rewrites:
                flushed.append({slot for slot, *_ in self._rewrites})
            super()._flush_rewrites()

    config = _config(make_corridor(), [
        _moving_seed("p", (1.0, 0.9), (0.5, -1.0), 0.04),
        _moving_seed("q", (1.6, 0.9 + 0.04 * lag), (0.5, -1.0), 0.04)], max_steps=40)
    ring, deques = Recorded(), Recorded()
    Flushes(config, ring).run()
    DequeWindowSimulator(config, deques).run()
    assert len(flushed) >= 8
    if lag:
        assert all(len(f) == 1 for f in flushed) and flushed[0] != flushed[1]
    else:
        assert all(f == {0, 1} for f in flushed)
    assert len(ring.inputs) == len(deques.inputs)
    for got, want in zip(ring.inputs, deques.inputs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _scalar_crossings(p_from, p_to, table, valid, rows):
    """Move by move against the valid walls of its table row, as the wall's
    index within the row: the scalar oracle of first_wall_crossings."""
    rows = np.reshape(rows, -1)
    out = []
    for a, b, r in zip(np.reshape(p_from, (-1, 2)), np.reshape(p_to, (-1, 2)), rows):
        hit = first_wall_crossing(a, b, table[r, valid[r]])
        out.append(-1 if hit is None else int(np.flatnonzero(valid[r])[hit]))
    return np.array(out, dtype=int)


def _scalar_modules(scene, points):
    return [point_in_module(scene, p) for p in np.reshape(points, (-1, 2))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", ["tcn", "sf"])
def test_batched_wall_guard_gives_the_scalar_trajectories(model, monkeypatch):
    """A dense composite crowd, once as shipped and once with the batched
    wall guard replaced by loops over the scalar functions.  The social-force
    hold test reaches first_wall_crossings through Simulator, so patching
    crowdsim.simulate covers both models."""
    config = _composite_crowd(30, seed=5)
    snaps = []

    def counted_snap(scene, p, *args):
        snapped = snap_to_module(scene, p, *args)
        snaps.append(snapped is not None)
        return snapped

    def run():
        if model == "tcn":
            return Simulator(config, ConstantVelocityOracle((1.5, 1.0))).run()
        return sf_run(config, SFParams(), rng=np.random.default_rng(5))

    monkeypatch.setattr(crowdsim.simulate, "snap_to_module", counted_snap)
    shipped = run()
    assert sum(snaps) > 0                                    # junction snaps
    assert sum(t.exited for t in shipped.trajectories) > 0
    if model == "tcn":
        assert sum(t.reset_flags.sum() for t in shipped.trajectories) > 0
    else:                                                    # holds
        assert any(np.any(np.all(np.diff(t.positions[7:], axis=0) == 0.0, axis=1))
                   for t in shipped.trajectories)
    monkeypatch.setattr(crowdsim.simulate, "first_wall_crossings", _scalar_crossings)
    monkeypatch.setattr(crowdsim.simulate, "point_in_modules", _scalar_modules)
    assert run().to_rows("r") == shipped.to_rows("r")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_social_force_holds_record_a_standstill(monkeypatch):
    """A blocked social-force move, crossing or stranded, commits the last
    position with a velocity of exactly zero, not the force law's."""
    append, holds = Simulator._append, []

    def checked_append(self, ped, nxt, module_id, vel):
        append(self, ped, nxt, module_id, vel)
        if len(ped.positions) > PARAMS.window and \
                ped.positions[-1].tobytes() == ped.positions[-2].tobytes():
            holds.append(ped.velocities[-1].tobytes() == np.zeros(2).tobytes())

    monkeypatch.setattr(Simulator, "_append", checked_append)
    sf_run(_composite_crowd(30, seed=5), SFParams(), rng=np.random.default_rng(5))
    assert holds and all(holds)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", ["tcn", "sf"])
def test_each_crowd_stage_is_one_kernel_call(model, monkeypatch):
    """Over a dense composite crowd and a two-corridor crowd walking out
    through an open edge: a crossing stage (_crossings) with pedestrians is
    one first_wall_crossings call and one without is none, and the wall
    guard is one such stage per step with moved pedestrians, all of them;
    point_in_modules never sees an empty list (most steps have no
    entrants); social force projects onto the walls at most once per
    module group and step, and the force law gets each subject's own
    projection onto its module's active walls.  _blocked is called once
    per crossing move, with the wall the scalar reference says it crosses,
    and with no wall only for a move that ends outside every module,
    crosses none of its module's walls and snaps nowhere; the reset of
    such a stranded move runs no crossing test before _reset."""
    kernel, modules = crowdsim.simulate.first_wall_crossings, crowdsim.simulate.point_in_modules
    model_class = Simulator if model == "tcn" else _SocialForceSimulator
    crossings, propose = Simulator._crossings, model_class._propose
    blocked, reset = model_class._blocked, Simulator._reset
    law = crowdsim.social_force.sf_acceleration
    sim = calls = None

    def counted_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def checked_modules(scene, points):
        assert len(points) > 0
        return modules(scene, points)

    def counted_crossings(self, peds, table, valid):
        before = calls["kernel"]
        out = crossings(self, peds, table, valid)
        calls["stages"].append((len(peds), calls["kernel"] - before))
        if table is self._wall_table[0]:                 # the wall guard
            t = self.step_index
            calls["guards"][t] = calls["guards"].get(t, 0) + 1
            assert [p.ped_id for p in peds] == calls["moved"][t]
            for ped in peds:
                walls = active_walls(self.config.scene, ped.module_id)
                hit = first_wall_crossing(ped.positions[-1], ped._proposal, walls)
                if hit is not None:
                    calls["crossing"].append((t, ped.ped_id, walls[hit].tobytes()))
        return out

    def grouped_propose(self, active, moved, pos, vel, t):
        calls["groups"][t] = len({p.module_id for p in moved})
        calls["moved"][t] = [p.ped_id for p in moved]
        return propose(self, active, moved, pos, vel, t)

    def recorded_blocked(self, ped, wall, t):
        if wall is not None:
            calls["blocked"].append((t, ped.ped_id, wall.tobytes()))
            return blocked(self, ped, wall, t)
        scene = self.config.scene
        assert point_in_module(scene, ped._proposal) is None
        assert first_wall_crossing(ped.positions[-1], ped._proposal,
                                   active_walls(scene, ped.module_id)) is None
        assert snap_to_module(scene, ped._proposal) is None
        calls["stranded"] += 1
        calls["stranded_at"] = calls["kernel"]
        try:
            return blocked(self, ped, wall, t)
        finally:
            calls["stranded_at"] = None

    def checked_reset(self, ped, wall, t):
        if calls["stranded_at"] is not None:
            assert calls["kernel"] == calls["stranded_at"]
            calls["stranded_resets"] += 1
        return reset(self, ped, wall, t)

    def counted_projection(*args):
        calls["projections"][sim.step_index] = calls["projections"].get(sim.step_index, 0) + 1
        return project_on_segments(*args)

    def checked_law(index, pos, vel, speed, direction, wall_points, params):
        module_id = sim._active()[index].module_id
        walls = active_walls(sim.config.scene, module_id)
        want = project_on_segments(pos[index], *segment_terms(walls[:, 0], walls[:, 1]))
        assert wall_points.tobytes() == want.tobytes()
        calls["laws"] += 1
        return law(index, pos, vel, speed, direction, wall_points, params)

    monkeypatch.setattr(crowdsim.simulate, "first_wall_crossings", counted_kernel)
    monkeypatch.setattr(crowdsim.simulate, "point_in_modules", checked_modules)
    monkeypatch.setattr(Simulator, "_crossings", counted_crossings)
    monkeypatch.setattr(model_class, "_propose", grouped_propose)
    monkeypatch.setattr(model_class, "_blocked", recorded_blocked)
    monkeypatch.setattr(Simulator, "_reset", checked_reset)
    monkeypatch.setattr(crowdsim.social_force, "project_on_segments", counted_projection)
    monkeypatch.setattr(crowdsim.social_force, "sf_acceleration", checked_law)

    stranded_resets = {}
    for name, config in (("composite", _composite_crowd(30, seed=5)),
                         ("corridors", _corridor_walkback_crowd())):
        if model == "tcn":
            velocity = (1.5, 1.0) if name == "composite" else (-2.0, 0.0)
            sim = Simulator(config, ConstantVelocityOracle(velocity))
        else:
            sim = _SocialForceSimulator(config, SFParams(), draw_desired_speeds(
                [s.ped_id for s in config.pedestrians], np.random.default_rng(5), SFParams()))
        calls = {"kernel": 0, "stages": [], "projections": {}, "groups": {}, "laws": 0,
                 "moved": {}, "guards": {}, "crossing": [], "blocked": [], "stranded": 0,
                 "stranded_at": None, "stranded_resets": 0}
        sim.run()

        assert sim.step_index > len({s.entry_step for s in config.pedestrians})
        assert all(kernels == (1 if peds else 0) for peds, kernels in calls["stages"])
        assert any(peds == 0 for peds, _ in calls["stages"])     # empty stages were reached
        assert any(peds >= 2 for peds, _ in calls["stages"])
        assert calls["guards"] == {t: 1 for t in calls["moved"]}
        assert calls["blocked"] == calls["crossing"]
        for t, count in calls["projections"].items():
            assert count <= calls["groups"][t]
        if model == "sf":
            assert calls["laws"] > 0 and calls["projections"]
        else:
            assert not (calls["laws"] or calls["projections"])
            assert calls["stranded_resets"] <= calls["stranded"]
        stranded_resets[name] = calls["stranded_resets"]
        if name == "composite":
            assert calls["crossing"]
    if model == "tcn":
        assert stranded_resets["corridors"] > 0


def test_model_surface_and_one_record_per_pedestrian():
    # The social-force model is the two model methods; the rest of its run
    # is the lifecycle's.
    assert {name for name, value in vars(_SocialForceSimulator).items()
            if callable(value) and not name.startswith("__")} == {"_propose", "_blocked"}
    # A pedestrian's lifecycle state and module are read off its record.
    assert not {"state", "module_id"} & {f.name for f in fields(crowdsim.simulate._PedRuntime)}
    log, pending = [], []           # after each step: (step, id, module_id, active); pending

    class Logged(Simulator):
        def step(self):
            super().step()
            active = {p.ped_id for p in self._active()}
            log.extend((self.step_index - 1, p.ped_id, p.module_id if p.positions else None,
                        p.ped_id in active) for p in self._peds)
            pending.append(self._has_pending())

    scene = _two_corridor_scene()
    seeds = [_moving_seed("fast", (3.0, 1.0), (1.5, 0.0), 0.04),
             _moving_seed("late", (0.5, 0.5), (1.5, 0.0), 0.04, entry=5)]
    sim = Logged(_config(scene, seeds, max_steps=100), ConstantVelocityOracle((1.5, 0.0)))
    result = sim.run()
    assert not hasattr(sim, "_order")
    by_id = {t.ped_id: t for t in result.trajectories}
    fast, late = by_id["fast"], by_id["late"]
    assert fast.exited and not fast.truncated and late.truncated and result.truncated
    assert fast.module_ids[0] == "a" and fast.module_ids[-1] == "b"     # a junction hand-off
    assert pending == [t < late.entry_step for t in range(len(pending))]
    for traj in (fast, late):
        last = traj.entry_step + len(traj.positions) - 1
        entries = [e for e in log if e[1] == traj.ped_id]
        assert len(entries) == sim.step_index
        for step, _, module_id, active in entries:
            if step < traj.entry_step:
                assert module_id is None and not active
            else:   # step t recorded the position of step t + 1, the last one at an exit
                assert module_id == traj.module_ids[min(step + 1, last) - traj.entry_step]
                assert active == (step + 1 < last or not traj.exited)
    assert [p.module_id for p in sim._peds] == [fast.module_ids[-1], late.module_ids[-1]]

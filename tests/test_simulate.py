"""Synchronous stepping, resets, transitions, and exit handling."""

import numpy as np
import pytest

import crowdsim.simulate
from crowdsim.features import ExtractionParams
from crowdsim.geometry import (
    ModuleRegion,
    Scene,
    active_walls,
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
from crowdsim.social_force import SFParams, sf_run

from oracles import (
    ConstantVelocityOracle,
    ZeroVelocityOracle,
    active_exit,
    closest_point_on_segment,
    extract_step,
    point_segment_distance,
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


class _ScalarFeatureSimulator(Simulator):
    """Extracts each pedestrian's features on its own with extract_step, in
    the step and in window rewrites."""

    def _step_features(self, active, snap):
        cfg = self.config
        return np.array([
            extract_step(pos, vel, *snap.others(ped.ped_id),
                         active_walls(cfg.scene, ped.module_id),
                         active_exit(cfg.scene, ped.module_id), cfg.params)
            for ped, pos, vel in zip(active, snap.pos, snap.vel)])

    def _rewrite_window(self, ped, steps, t):
        cfg = self.config
        by_step = dict(self._snapshots)
        for s in steps:
            ped.window[s - t - 1] = extract_step(
                ped.positions[s - ped.entry], ped.velocities[s - ped.entry],
                *by_step[s].others(ped.ped_id), active_walls(cfg.scene, ped.module_id),
                active_exit(cfg.scene, ped.module_id), cfg.params)


def _random_seeds(scene, rng, n, prefix, start_lo, start_hi, velocity, max_entry):
    """n moving seeds whose every window position lies inside the scene."""
    seeds = []
    while len(seeds) < n:
        seed = _moving_seed(f"{prefix}{len(seeds):02d}", rng.uniform(start_lo, start_hi),
                            velocity(rng), 0.04, entry=int(rng.integers(0, max_entry)))
        if all(point_in_module(scene, p) is not None for p in seed.positions):
            seeds.append(seed)
    return seeds


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_features_give_the_scalar_trajectories_bitwise():
    """Two crowds under a small random TCN whose head bias walks them out:
    in composite into walls (resets from _propose), and in module a of the
    two-corridor scene back through its open entry edge (resets from
    _commit's _stranded, which the step-end flush must also pick up)."""
    composite = make_composite()
    corridors = _two_corridor_scene()
    lo = np.min([m.boundary.min(axis=0) for m in composite.modules], axis=0)
    hi = np.max([m.boundary.max(axis=0) for m in composite.modules], axis=0)
    cases = [
        (_random_seeds(composite, np.random.default_rng(5), 16, "p", lo, hi,
                       lambda rng: rng.normal(scale=0.8, size=2), 6), composite, (1.5, -0.5)),
        (_random_seeds(corridors, np.random.default_rng(7), 8, "q", (0.6, 0.3), (1.5, 1.7),
                       lambda rng: (-1.0, rng.normal(scale=0.3)), 4), corridors, (-2.0, 0.0)),
    ]
    for seeds, scene, bias in cases:
        net = VelocityPredictor(NetworkConfig(input_dim=PARAMS.feature_dim, window=8,
                                              tcn_channels=(4, 4), kernel_size=2,
                                              dilations=(1, 2)), np.random.default_rng(6))
        net.head.b[:] = bias
        config = _config(scene, seeds, max_steps=40)
        rewritten = []                  # pedestrians whose rows each flush rewrites
        stranded_rows = []              # rows queued by each _stranded call

        class Recording(Simulator):
            def _stranded(self, ped, nxt, t):
                queued = len(self._rewrites)
                out = super()._stranded(ped, nxt, t)
                stranded_rows.append(len(self._rewrites) - queued)
                return out

            def _flush_rewrites(self):
                rewritten.append(len({ped.ped_id for ped, *_ in self._rewrites}))
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
        assert sim._path_clear(prev, points, walls, violated) == want
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
    # The (n, w, D) input is built in one call; row i must be the i-th moved
    # pedestrian's own window (id order), as np.stack of its deque gives it.
    sizes = []

    class Checked(_DriftOracle):
        def predict(self, x):
            moved = [p for p in sim._active() if p._predicted]
            want = np.stack([np.stack(p.window) for p in moved])
            assert x.shape == want.shape and x.tobytes() == want.tobytes()
            sizes.append(len(moved))
            return super().predict(x)

    sim = Simulator(_composite_crowd(12, 3), Checked())
    sim.run()
    assert sizes and max(sizes) >= 2


def _scalar_crossings(p_from, p_to, walls):
    hits = [first_wall_crossing(a, b, walls)
            for a, b in zip(np.reshape(p_from, (-1, 2)), np.reshape(p_to, (-1, 2)))]
    return np.array([-1 if i is None else i for i in hits], dtype=int)


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

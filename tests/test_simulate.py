"""Synchronous stepping, resets, transitions, and exit handling."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from crowdsim.ingest import Run, Trajectory
from crowdsim.network import NetworkConfig, VelocityPredictor
from crowdsim.scene_library import make_bottleneck, make_composite, make_corridor
from crowdsim.simulate import (
    PedestrianSeed,
    SimulationConfig,
    Simulator,
    run_simulation,
    seeds_from_run,
    snap_to_modules,
)
from crowdsim.social_force import SFParams, _SocialForceSimulator, draw_desired_speeds, sf_run

from oracles import (
    ConstantVelocityOracle,
    DequeWindowSimulator,
    ListSimulator,
    ListSocialForceSimulator,
    StubPredictor,
    ZeroVelocityOracle,
    active_exit,
    closest_point_on_segment,
    extract_step,
    point_segment_distance,
    snap_to_module,
    snapshot_others,
)
from oracles import scalar_first_wall_crossing as first_wall_crossing
from oracles import scalar_point_in_module as point_in_module

PARAMS = ExtractionParams(ray_deg=45.0, vision_range=20.0, window=8)


class _DriftOracle(StubPredictor):
    """Row-wise model reading the window: damped last velocity plus a bias."""

    def __init__(self, bias=(0.05, 0.02)):
        self.bias = np.asarray(bias, dtype=float)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x[:, -1, :2] * 0.9 + self.bias


class _SpikeOracle(StubPredictor):
    """Emits an upward lurch when the window shows a stationary pedestrian."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 2))
        stationary = np.all(x[:, :, :2] == 0.0, axis=(1, 2))
        out[stationary] = (0.0, 5.0)
        return out


class _HashOracle(StubPredictor):
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
    assert traj.steps[0] == 5
    assert np.array_equal(traj.positions[:8], seed.positions)


def test_records_are_views_of_the_slot_arrays():
    # a finished run has one representation: each record's positions and
    # reset flags are slices of the simulator's slot arrays, not copies
    seeds = [_moving_seed("a", (0.6, 1.0), (0.9, 0.05), 0.04),
             _moving_seed("b", (1.0, 2.0), (0.7, -0.1), 0.04, entry=5)]
    sim = Simulator(_config(make_corridor(), seeds, max_steps=60), _DriftOracle())
    result = sim.run()
    assert len(result.trajectories) == 2
    for traj in result.trajectories:
        assert np.shares_memory(traj.positions, sim._pos)
        assert np.shares_memory(traj.reset_flags, sim._flag)


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

    run = Run("r", (traj("a", 30, 12), traj("b", 34, 9), traj("c", 40, 5)))
    seeds = seeds_from_run(run.tracks(0.04), window=8)
    assert [s.ped_id for s in seeds] == ["a", "b"]
    assert [s.entry_step for s in seeds] == [0, 4]
    assert seeds[0].positions.shape == (8, 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(0, 30), st.integers(2, 20)), min_size=1,
                      max_size=6),
       window=st.integers(2, 10))
@example(spans=[(3, 5), (5, 40), (9, 12)], window=8)    # the earliest seeds nothing
@example(spans=[(4, 2), (4, 9), (0, 3)], window=8)      # nor do the two earliest
def test_simulated_steps_start_at_their_recorded_tracks(spans, window):
    # Random runs: tracks of random frames t0 and lengths, some shorter
    # than the window, the earliest among them.  Every track at least w
    # long is simulated, and its first w steps and positions are those of
    # its `Run.tracks` track: seeds and the metrics' recorded side count
    # steps from one origin.
    dt = 0.0625
    trajs = []
    for i, (t0, n) in enumerate(spans):
        pos = np.column_stack([0.5 + 0.05 * np.arange(n), np.full(n, 0.4 + 0.4 * i)])
        vel = np.full_like(pos, np.nan)
        vel[1:] = 0.8, 0.0
        trajs.append(Trajectory(ped_id=f"p{i}", t0=t0, dt=dt, positions=pos, velocities=vel))
    tracks = {t.ped_id: t for t in Run("r", tuple(trajs)).tracks(dt)}
    assert min(t.steps[0] for t in tracks.values()) == 0
    seeds = seeds_from_run(tracks.values(), window)
    assert [s.ped_id for s in seeds] == [pid for pid, t in tracks.items()
                                         if len(t.steps) >= window]
    if not seeds:
        return
    config = SimulationConfig(scene=make_corridor(), dt=dt, pedestrians=tuple(seeds),
                              params=ExtractionParams(window=window),
                              max_steps=max(s.entry_step for s in seeds) + window)
    result = sf_run(config, SFParams(), rng=np.random.default_rng(0))
    assert len(result.trajectories) == len(seeds)
    for sim in result.trajectories:
        recorded = tracks[sim.ped_id]
        assert sim.steps[:window].tolist() == recorded.steps[:window].tolist()
        assert sim.positions[:window].tobytes() == recorded.positions[:window].tobytes()


def test_result_rows_format():
    scene = make_corridor()
    seeds = [_moving_seed("p", (5.6, 1.5), (1.0, 0.0), 0.04)]
    result = run_simulation(_config(scene, seeds, max_steps=100),
                            ConstantVelocityOracle((1.0, 0.0)))
    rows = list(result.to_rows("E080-C300"))
    assert rows[0][:3] == ["E080-C300", "p", 0]
    assert rows[0][3] == 0.0
    assert rows[1][3] == pytest.approx(0.04)
    assert all(len(r) == 8 for r in rows)
    assert all(r[6] == "corridor" for r in rows)


def _module_id(sim, slot, step) -> str:
    """Id of the module a simulator recorded for a slot at a step."""
    return sim.config.scene.modules[sim._row[slot, step]].id


class _ScalarFeatureSimulator(DequeWindowSimulator):
    """Extracts each pedestrian's features on its own with extract_step, in
    the step and in window rewrites."""

    def _step_features(self, active, pos, vel):
        cfg, t = self.config, self.step_index
        snap = self._snapshots[-1][1]               # the reference's own record of pos, vel
        return np.array([
            extract_step(p, v, *snapshot_others(snap, self._ids[slot]),
                         active_walls(cfg.scene, _module_id(self, slot, t)),
                         active_exit(cfg.scene, _module_id(self, slot, t)), cfg.params)
            for slot, p, v in zip(active, pos, vel)])

    def _flush_rewrites(self):
        cfg, t = self.config, self.step_index
        by_step = dict(self._snapshots)
        rows = []
        for slot, s, *_ in self._rewrites:
            module_id = _module_id(self, slot, t)        # when it reset
            rows.append(extract_step(
                self._pos[slot, s], self._vel[slot, s],
                *snapshot_others(by_step[s], self._ids[slot]), active_walls(cfg.scene, module_id),
                active_exit(cfg.scene, module_id), cfg.params))
        if rows:                # the step's rewrite rows, encoded together
            for (slot, s, *_), row in zip(self._rewrites, self.predictor.encode(np.array(rows))):
                self._deques[slot][s - t - 1] = row
        self._rewrites.clear()


def _random_seeds(scene, rng, n, prefix, start_lo, start_hi, velocity, max_entry, w=8):
    """n moving seeds whose every window position lies inside the scene."""
    seeds = []
    while len(seeds) < n:
        seed = _moving_seed(f"{prefix}{len(seeds):02d}", rng.uniform(start_lo, start_hi),
                            velocity(rng), 0.04, entry=int(rng.integers(0, max_entry)), w=w)
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
            def _blocked(self, slots, walls, t):
                queued = len(self._rewrites)
                out = super()._blocked(slots, walls, t)
                if walls is None:
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
    # 600 chains of 1-7 guided points in one call, each right-aligned in a
    # (600, 8, 2) array after NaN padding that _path_clear must not read.
    scene = make_composite()
    sim = Simulator(_config(scene, []), ZeroVelocityOracle())
    rng = np.random.default_rng(8)
    chains = np.full((600, 8, 2), np.nan)
    first, rows, violated, want = [], [], [], []
    for i in range(len(chains)):
        row = int(rng.integers(len(scene.modules)))
        walls = active_walls(scene, scene.modules[row].id)
        wall = walls[int(rng.integers(len(walls)))]
        # a guided path along the violated wall, near the clearance distance
        along = wall[1] - wall[0]
        normal = np.array([-along[1], along[0]]) / np.hypot(*along)
        start = wall[0] + rng.uniform(-0.1, 1.1) * along
        offset = rng.choice([0.05, 0.05 - 2e-9, 0.049, 0.06, -0.05, 0.5])
        step = rng.choice([0.0, 0.04, 0.3]) * rng.normal(size=2)
        points = [start + offset * normal + j * step for j in range(int(rng.integers(1, 8)))]
        prev = points[0] - rng.choice([0.0, 0.05]) * rng.normal(size=2)
        first.append(7 - len(points))
        chains[i, first[-1]:] = [prev] + points
        rows.append(row)
        violated.append(wall)
        want.append(_path_clear_loop(scene, prev, points, walls, wall))
    got = sim._path_clear(chains, np.array(first), np.array(rows), np.array(violated))
    assert got.dtype == bool and got.tolist() == want
    assert 0 < sum(want) < len(want)


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


class _WallPushOracle(StubPredictor):
    """Up the corridor at 1.5-2.5 m/s, drifting in x, keyed on the last
    feature row: at its upper wall a pedestrian resets at every step."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        h = x[:, -1, 2] * 37.0
        return np.column_stack([0.6 * np.sin(h), 2.0 + 0.5 * np.sin(1.7 * h)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wide_window_resets_give_the_list_reference_bitwise(monkeypatch):
    """At window 12 a reset averages up to 12 recorded speeds, past the 8
    where numpy's mean sums pairwise.  Two crowds reset together in the
    slot arrays and one pedestrian at a time in the list reference: one
    pushed into the corridor's upper wall early, so that it rewrites spans
    of 3 to 12 steps, and a composite crowd under scrambled headings,
    which also stands at its clear points.  Positions, velocities and
    flags agree bit for bit."""
    w = 12
    spans, standing = [], 0         # each chain test's steps; standing steps
    path_clear = Simulator._path_clear

    def recorded(self, chains, first, rows, violated):
        spans.extend((w - first).tolist())
        return path_clear(self, chains, first, rows, violated)

    monkeypatch.setattr(Simulator, "_path_clear", recorded)
    rng = np.random.default_rng(12)
    pushed = [_moving_seed(f"p{i:02d}", (rng.uniform(0.3, 4.0), rng.uniform(2.3, 2.5)),
                           (rng.uniform(-0.2, 0.5), 0.5), 0.04, entry=int(rng.integers(0, 6)),
                           w=w) for i in range(16)]
    composite = make_composite()
    lo = np.min([m.boundary.min(axis=0) for m in composite.modules], axis=0)
    hi = np.max([m.boundary.max(axis=0) for m in composite.modules], axis=0)
    scrambled = _random_seeds(composite, np.random.default_rng(12), 24, "p", lo, hi,
                              lambda rng: rng.normal(scale=0.8, size=2), 6, w=w)
    for scene, seeds, steps, oracle in ((make_corridor(), pushed, 40, _WallPushOracle()),
                                        (composite, scrambled, 70, _HashOracle())):
        config = SimulationConfig(scene=scene, dt=0.04, pedestrians=tuple(seeds),
                                  params=replace(PARAMS, window=w), max_steps=steps)
        sim, ref = Simulator(config, oracle), ListSimulator(config, oracle)
        got, want = sim.run(), ref.run()
        assert list(got.to_rows("r")) == list(want.to_rows("r"))
        peds = {ped.ped_id: ped for ped in ref._peds}
        for traj in got.trajectories:
            ped, vel = peds[traj.ped_id], sim._vel[sim._ids.index(traj.ped_id), traj.steps]
            assert traj.positions.tobytes() == np.array(ped.positions).tobytes()
            assert vel.tobytes() == np.array(ped.velocities).tobytes()
            assert traj.reset_flags.tobytes() == np.array(ped.reset_flags).tobytes()
            # a standing path records zero velocity past its first step
            standing += int(np.sum(traj.reset_flags[w + 1:] & traj.reset_flags[w:-1]
                                   & np.all(vel[w + 1:] == 0.0, axis=1)))
    assert set(range(3, w + 1)) <= set(spans) and standing > 0


def _scalar_crossings(p_from, p_to, table, valid, rows):
    """Move by move against the valid walls of its table row, as the wall's
    index within the row: the scalar oracle of first_wall_crossings."""
    rows = np.reshape(rows, -1)
    out = []
    for a, b, r in zip(np.reshape(p_from, (-1, 2)), np.reshape(p_to, (-1, 2)), rows):
        hit = first_wall_crossing(a, b, table[r, valid[r]])
        out.append(-1 if hit is None else int(np.flatnonzero(valid[r])[hit]))
    return np.array(out, dtype=int)


def _scalar_rows(scene, points):
    """Point by point, as the module's row, or -1: the scalar oracle of
    containing_rows."""
    ids = [m.id for m in scene.modules]
    found = [point_in_module(scene, p) for p in np.reshape(points, (-1, 2))]
    return np.array([-1 if m is None else ids.index(m) for m in found], dtype=int)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", ["tcn", "sf"])
def test_batched_wall_guard_gives_the_scalar_trajectories(model, monkeypatch):
    """A dense composite crowd, once as shipped and once with the batched
    wall guard replaced by loops over the scalar functions.  The social-force
    hold test reaches first_wall_crossings through Simulator, so patching
    crowdsim.simulate covers both models."""
    config = _composite_crowd(30, seed=5)
    snaps = []

    def counted_snap(scene, points):
        snapped = snap_to_modules(scene, points)
        snaps.extend((snapped[1] >= 0).tolist())
        return snapped

    def run():
        if model == "tcn":
            return Simulator(config, ConstantVelocityOracle((1.5, 1.0))).run()
        return sf_run(config, SFParams(), rng=np.random.default_rng(5))

    monkeypatch.setattr(crowdsim.simulate, "snap_to_modules", counted_snap)
    shipped = run()
    assert sum(snaps) > 0                                    # junction snaps
    assert sum(t.exited for t in shipped.trajectories) > 0
    if model == "tcn":
        assert sum(t.reset_flags.sum() for t in shipped.trajectories) > 0
    else:                                                    # holds
        assert any(np.any(np.all(np.diff(t.positions[7:], axis=0) == 0.0, axis=1))
                   for t in shipped.trajectories)
    monkeypatch.setattr(crowdsim.simulate, "first_wall_crossings", _scalar_crossings)
    monkeypatch.setattr(crowdsim.simulate, "containing_rows", _scalar_rows)
    assert list(run().to_rows("r")) == list(shipped.to_rows("r"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_social_force_holds_record_a_standstill(monkeypatch):
    """A blocked social-force move, crossing or stranded, commits the last
    position with a velocity of exactly zero, not the force law's."""
    step, holds = Simulator.step, []

    def checked_step(self):
        t = self.step_index
        committed = self._active()
        step(self)
        for slot in committed:          # each commits step t + 1
            if self._entry[slot] + PARAMS.window - 1 <= t and \
                    self._pos[slot, t + 1].tobytes() == self._pos[slot, t].tobytes():
                holds.append(self._vel[slot, t + 1].tobytes() == np.zeros(2).tobytes())

    monkeypatch.setattr(Simulator, "step", checked_step)
    sf_run(_composite_crowd(30, seed=5), SFParams(), rng=np.random.default_rng(5))
    assert holds and all(holds)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", ["tcn", "sf"])
def test_each_crowd_stage_is_one_kernel_call(model, monkeypatch):
    """Over a dense composite crowd and a two-corridor crowd walking out
    through an open edge: a crossing stage (_crossings) with pedestrians is
    one first_wall_crossings call and one without is none, and the wall
    guard is one such stage per step with moved pedestrians, all of them;
    containing_rows never sees an empty list (most steps have no
    entrants); social force projects onto the walls at most once per
    module group and step, and the force law gets each subject's own
    projection onto its module's active walls.  _blocked gets each
    crossing move once, with the wall the scalar reference says it
    crosses, and with no wall only the moves that end outside every
    module, cross none of their module's walls and snap nowhere.  The TCN's
    reset stage is at most three crossing tests (guided chains, standing
    chains, next moves), and for stranded moves none runs before their
    first chain test."""
    kernel, modules = crowdsim.simulate.first_wall_crossings, crowdsim.simulate.containing_rows
    snap = crowdsim.simulate.snap_to_modules
    model_class = Simulator if model == "tcn" else _SocialForceSimulator
    crossings, propose = Simulator._crossings, model_class._propose
    blocked, path_clear = model_class._blocked, Simulator._path_clear
    law = crowdsim.social_force.sf_acceleration
    sim = calls = None

    def counted_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def checked_modules(scene, points):
        assert len(points) > 0
        return modules(scene, points)

    def recorded_snap(scene, points):
        out = snap(scene, points)
        calls["unsnapped"] = np.reshape(points, (-1, 2))[out[1] < 0]
        return out

    def counted_crossings(self, p_from, p_to, table, valid, rows):
        before = calls["kernel"]
        out = crossings(self, p_from, p_to, table, valid, rows)
        calls["stages"].append((len(rows), calls["kernel"] - before))
        if table is self._wall_table[0]:                 # the wall guard
            t = self.step_index
            calls["guards"][t] = calls["guards"].get(t, 0) + 1
            slots = calls["moved"][t]
            assert p_from.tobytes() == self._pos[slots, t].tobytes()
            for slot, a, b in zip(slots.tolist(), p_from, p_to):
                walls = active_walls(self.config.scene, _module_id(self, slot, t))
                hit = first_wall_crossing(a, b, walls)
                if hit is not None:
                    calls["crossing"].append((t, slot, walls[hit].tobytes()))
        return out

    def grouped_propose(self, active, moved, pos, vel, t):
        calls["groups"][t] = len(set(self._row[active[moved], t].tolist()))
        calls["moved"][t] = active[moved]
        return propose(self, active, moved, pos, vel, t)

    def recorded_blocked(self, slots, walls, t):
        before = calls["kernel"]
        if walls is not None:
            calls["blocked"] += [(t, slot, wall.tobytes())
                                 for slot, wall in zip(slots.tolist(), walls)]
            out = blocked(self, slots, walls, t)
            assert calls["kernel"] - before <= 3
            return out
        scene = self.config.scene
        assert len(calls["unsnapped"]) == len(slots)
        for slot, proposal in zip(slots, calls["unsnapped"]):
            assert point_in_module(scene, proposal) is None
            assert first_wall_crossing(self._pos[slot, t], proposal,
                                       active_walls(scene, _module_id(self, slot, t))) is None
            assert snap_to_module(scene, proposal) is None
        calls["stranded"] += len(slots)
        calls["stranded_at"] = before
        fresh = ~self._flag[slots, t + 1]
        try:
            return blocked(self, slots, walls, t)
        finally:
            calls["stranded_resets"] += int(np.sum(fresh & self._flag[slots, t + 1]))
            calls["stranded_at"] = None
            assert calls["kernel"] - before <= 3

    def checked_path_clear(self, chains, first, rows, violated):
        if calls["stranded_at"] is not None:    # a stranded reset's first chain test
            assert calls["kernel"] == calls["stranded_at"]
            calls["stranded_chains"] += len(chains)
            calls["stranded_at"] = None
        return path_clear(self, chains, first, rows, violated)

    def counted_projection(*args):
        calls["projections"][sim.step_index] = calls["projections"].get(sim.step_index, 0) + 1
        return project_on_segments(*args)

    def checked_law(index, pos, vel, reach, crowd, speed, direction, params):
        module_id = _module_id(sim, sim._active()[index], sim.step_index)
        walls = active_walls(sim.config.scene, module_id)
        want = project_on_segments(pos[index], *segment_terms(walls[:, 0], walls[:, 1]))
        assert pos[crowd:].tobytes() == want.tobytes()
        calls["laws"] += 1
        return law(index, pos, vel, reach, crowd, speed, direction, params)

    monkeypatch.setattr(crowdsim.simulate, "first_wall_crossings", counted_kernel)
    monkeypatch.setattr(crowdsim.simulate, "containing_rows", checked_modules)
    monkeypatch.setattr(crowdsim.simulate, "snap_to_modules", recorded_snap)
    monkeypatch.setattr(Simulator, "_crossings", counted_crossings)
    monkeypatch.setattr(model_class, "_propose", grouped_propose)
    monkeypatch.setattr(model_class, "_blocked", recorded_blocked)
    monkeypatch.setattr(Simulator, "_path_clear", checked_path_clear)
    monkeypatch.setattr(crowdsim.social_force, "project_on_segments", counted_projection)
    monkeypatch.setattr(crowdsim.social_force, "sf_acceleration", checked_law)

    stranded_resets, stranded_chains = {}, {}
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
                 "stranded_at": None, "stranded_resets": 0, "stranded_chains": 0,
                 "unsnapped": None}
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
        stranded_chains[name] = calls["stranded_chains"]
        if name == "composite":
            assert calls["crossing"]
    if model == "tcn":
        assert stranded_resets["corridors"] > 0 and stranded_chains["corridors"] > 0


def test_model_surface_and_one_record_per_pedestrian():
    # The social-force model is the two model methods; the rest of its run
    # is the lifecycle's.
    assert {name for name, value in vars(_SocialForceSimulator).items()
            if callable(value) and not name.startswith("__")} == {"_propose", "_blocked"}
    # A pedestrian's lifecycle state and module are read off its record.
    assert not {"_state", "_module_id"} & set(vars(Simulator(_config(make_corridor(), []),
                                                             ZeroVelocityOracle())))
    log, pending = [], []           # after each step: (step, id, module_id, active); pending

    def module_of(sim, slot):       # the module of its last recorded position
        return _module_id(sim, slot, sim._entry[slot] + sim._length[slot] - 1)

    class Logged(Simulator):
        def step(self):
            super().step()
            active = set(self._active().tolist())
            log.extend((self.step_index - 1, pid, module_of(self, slot) if self._length[slot]
                        else None, slot in active) for slot, pid in enumerate(self._ids))
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
    assert pending == [t < late.steps[0] for t in range(len(pending))]
    for traj in (fast, late):
        last = traj.steps[0] + len(traj.positions) - 1
        entries = [e for e in log if e[1] == traj.ped_id]
        assert len(entries) == sim.step_index
        for step, _, module_id, active in entries:
            if step < traj.steps[0]:
                assert module_id is None and not active
            else:   # step t recorded the position of step t + 1, the last one at an exit
                assert module_id == traj.module_ids[min(step + 1, last) - traj.steps[0]]
                assert active == (step + 1 < last or not traj.exited)
    assert [module_of(sim, slot) for slot in range(2)] == [fast.module_ids[-1],
                                                           late.module_ids[-1]]


def test_stranded_move_in_a_module_without_walls_holds():
    # A one-module corridor with no walls at all: a move that leaves it
    # crosses nothing and snaps nowhere, and with no wall to reset against
    # the TCN holds, as social force does.
    bare = ModuleRegion(id="bare", kind="corridor",
                        boundary=np.array([[0.0, 0.0], [6.0, 0.0], [6.0, 3.0], [0.0, 3.0]]),
                        walls=np.zeros((0, 2, 2)), exit=np.array([[6.0, 0.0], [6.0, 3.0]]))
    scene = Scene(modules=(bare,), successor={"bare": None})
    scene.validate()
    params = ExtractionParams(ray_deg=45.0, vision_range=20.0, window=2)
    config = SimulationConfig(scene=scene, dt=0.04, params=params, max_steps=12,
                              pedestrians=(_stationary_seed("a", (2.0, 1.5), w=2),))
    traj = Simulator(config, ConstantVelocityOracle((0.0, 100.0))).run().trajectories[0]
    assert traj.truncated and not traj.exited and len(traj.positions) == 13
    assert np.array_equal(traj.positions, np.tile((2.0, 1.5), (13, 1)))
    assert not traj.reset_flags.any() and set(traj.module_ids) == {"bare"}


class _ScriptOracle(StubPredictor):
    """One velocity per predict call, for a lone pedestrian; zero after the
    script ends."""

    def __init__(self, script):
        self.script = list(script)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.tile(self.script.pop(0) if self.script else (0.0, 0.0), (len(x), 1))


def test_a_pedestrian_resets_at_most_once_per_step():
    # Module a's exit opens onto nothing: its successor lies 40 m away.  The
    # walker runs +x at 2 m/s to x = 3.97, then lurches through the upper
    # wall.  The guard resets it along the wall, and the reset's next step
    # (x = 4.05) leaves every module and snaps nowhere, so the stranded move
    # goes to _blocked again in the same step.  It has reset already, so it
    # holds at its reset position; a second reset would commit x = 4.05.
    a, b = _two_corridor_scene().modules
    shift = np.array([40.0, 0.0])
    far = replace(b, boundary=b.boundary + shift, walls=b.walls + shift, exit=b.exit + shift,
                  entries=b.entries + shift, virtual_walls=b.virtual_walls + shift)
    scene = Scene(modules=(a, far), successor={"a": "b", "b": None})
    scene.validate()
    config = _config(scene, [_moving_seed("w", (0.45, 1.0), (2.0, 0.0), 0.04)], max_steps=50)
    script = [(2.0, 0.0)] * 37 + [(0.0, 50.0)]
    result = Simulator(config, _ScriptOracle(script)).run()
    traj = result.trajectories[0]
    reset = int(np.flatnonzero(traj.reset_flags)[-1])       # the step after the lurch
    assert reset == 45 and abs(traj.positions[44, 0] - 3.97) < 1e-9
    assert traj.positions[45].tobytes() == traj.positions[44].tobytes()
    assert all(point_in_module(scene, p) == "a" for p in traj.positions)
    assert list(result.to_rows("r")) == list(
        ListSimulator(config, _ScriptOracle(script)).run().to_rows("r"))


def test_junction_snap_ties_go_to_the_earlier_module():
    # (4, -0.01) lies 0.01 m from the bottom and inner edges of both
    # corridors of the two-corridor scene; it snaps to the corner of
    # whichever module comes first, exactly as the scalar snap does.
    a, b = _two_corridor_scene().modules
    p = np.array([4.0, -0.01])
    for modules in ((a, b), (b, a)):
        scene = Scene(modules=modules, successor={"a": "b", "b": None})
        want = snap_to_module(scene, p)
        got, rows = snap_to_modules(scene, p[None])
        assert want[1] == modules[0].id and scene.modules[rows[0]].id == want[1]
        assert got[0].tobytes() == want[0].tobytes()


def test_snap_to_modules_equals_the_scalar_snap():
    scene = make_composite()
    rng = np.random.default_rng(3)
    verts = np.concatenate([m.boundary for m in scene.modules])
    points = np.concatenate([verts + rng.uniform(-0.03, 0.03, (len(verts), 2)),
                             verts + (0.02, 0.0), verts - (0.0, 0.02),
                             rng.uniform((-4.5, -2.5), (8.0, 7.5), (400, 2))])
    got, rows = snap_to_modules(scene, points)
    ids = [m.id for m in scene.modules]
    for p, c, row in zip(points, got, rows.tolist()):
        want = snap_to_module(scene, p)
        assert (row < 0) == (want is None), tuple(p)
        if want is not None:
            assert c.tobytes() == want[0].tobytes() and ids[row] == want[1]
    assert (rows >= 0).sum() > len(verts)


def _assert_same_runs(got, want):
    assert got.truncated == want.truncated
    assert [t.ped_id for t in got.trajectories] == [t.ped_id for t in want.trajectories]
    for a, b in zip(got.trajectories, want.trajectories):
        assert a.steps[0] == b.steps[0]
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.module_ids == b.module_ids
        assert a.reset_flags.tobytes() == b.reset_flags.tobytes()
        assert (a.exited, a.truncated) == (b.exited, b.truncated)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_slot_arrays_give_the_list_reference_trajectories(monkeypatch):
    """The walk-back crowd and dense composite crowds under both models,
    some TCN runs with stub predictors at very large speeds: every run
    equals the list bookkeeping's byte for byte, and together they snap,
    strand moves (reset or held) and exit."""
    snap, counts = crowdsim.simulate.snap_to_modules, {"snapped": 0, "stranded": 0}

    def counted_snap(scene, points):
        out = snap(scene, points)
        counts["snapped"] += int((out[1] >= 0).sum())
        counts["stranded"] += int((out[1] < 0).sum())
        return out

    monkeypatch.setattr(crowdsim.simulate, "snap_to_modules", counted_snap)
    walkback, dense = _corridor_walkback_crowd(), _composite_crowd(30, seed=5)
    fast = replace(dense, max_steps=20)
    exited = 0
    for config, velocity in ((walkback, (-2.0, 0.0)), (dense, (1.5, 1.0)),
                             (fast, (60.0, 60.0)), (fast, (100.0, 0.0)), (fast, (1e6, -1e6))):
        stub = ConstantVelocityOracle(velocity)
        sim = Simulator(config, stub)
        got = sim.run()
        _assert_same_runs(got, ListSimulator(config, stub).run())
        exited += sum(t.exited for t in got.trajectories)
        assert sim._pos.shape[1] < 2 * (sim.step_index + 2)     # grown by doubling
    for config in (walkback, dense):
        speeds = draw_desired_speeds([s.ped_id for s in config.pedestrians],
                                     np.random.default_rng(5), SFParams())
        got = _SocialForceSimulator(config, SFParams(), speeds).run()
        _assert_same_runs(got, ListSocialForceSimulator(config, SFParams(), speeds).run())
        exited += sum(t.exited for t in got.trajectories)
    assert counts["snapped"] > 0 and counts["stranded"] > 0 and exited > 0

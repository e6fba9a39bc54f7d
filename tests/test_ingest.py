"""Parsing, clipping, sample building, and split behaviour."""

import json

import numpy as np
import pytest

import crowdsim.ingest
from crowdsim.features import ExtractionParams
from crowdsim.geometry import active_walls
from crowdsim.ingest import (
    Dataset,
    Run,
    Trajectory,
    build_samples,
    clip_to_focus,
    dataset_from_dict,
    dataset_to_dict,
    parse_trajectories,
    split_train_val,
)
from crowdsim.scene_library import make_composite, make_corridor

from oracles import active_exit, extract_step, samples_to_arrays, stack_window, velocity_at
from oracles import scalar_point_in_module as point_in_module

PARAMS = ExtractionParams(ray_deg=45.0, vision_range=20.0, window=8)


def _sample_count_oracle(n_positions: int, w: int) -> int:
    """Enumerate valid t directly: every window row needs a defined velocity
    (backward difference exists only from step 1) and the target v[t+1] must
    exist."""
    has_velocity = [False] + [True] * (n_positions - 1)
    count = 0
    for t in range(n_positions):
        window_ok = t - w + 1 >= 0 and all(has_velocity[s] for s in range(t - w + 1, t + 1))
        target_ok = t + 1 <= n_positions - 1
        if window_ok and target_ok:
            count += 1
    return count


def _write(tmp_path, text: str):
    path = tmp_path / "run.txt"
    path.write_text(text)
    return path


def _straight_run(name: str, n: int, dt: float = 0.04, speed: float = 1.0,
                  y: float = 1.5, x0: float = 0.2) -> Run:
    xs = x0 + speed * dt * np.arange(n)
    pos = np.column_stack([xs, np.full(n, y)])
    vel = np.full_like(pos, np.nan)
    vel[1:] = np.diff(pos, axis=0) / dt
    return Run(name=name, trajectories=(
        Trajectory(ped_id="1", t0=0, dt=dt, positions=pos, velocities=vel),))


def test_parse_two_rows_basic(tmp_path):
    path = _write(tmp_path, "7 0 0 0\n7 1 100 0\n")
    trajs = parse_trajectories(path, unit_scale=0.01, fps=25.0)
    assert len(trajs) == 1
    traj = trajs[0]
    assert traj.ped_id == "7"
    assert traj.t0 == 0
    assert traj.dt == pytest.approx(0.04)
    assert np.allclose(traj.positions, [[0.0, 0.0], [1.0, 0.0]])
    # one metre in one 25 fps frame
    assert np.allclose(traj.velocities[1], [25.0, 0.0])
    assert np.all(np.isnan(traj.velocities[0]))


def test_parse_interpolates_single_missing_frame(tmp_path):
    path = _write(tmp_path, "1 0 0 0\n1 2 200 40\n")
    trajs = parse_trajectories(path, unit_scale=0.01, fps=25.0)
    assert len(trajs) == 1
    assert np.allclose(trajs[0].positions, [[0, 0], [1.0, 0.2], [2.0, 0.4]])
    assert trajs[0].t0 == 0
    assert len(trajs[0]) == 3


def test_parse_empty_file(tmp_path):
    path = _write(tmp_path, "# header only\n\n")
    assert parse_trajectories(path) == []


def test_parse_accepts_commas_and_extra_columns(tmp_path):
    path = _write(tmp_path, "3, 10, 50, 25, 170\n3, 11, 60, 25, 171\n")
    trajs = parse_trajectories(path, unit_scale=0.01, fps=16.0)
    assert len(trajs) == 1
    assert trajs[0].t0 == 10
    assert trajs[0].dt == pytest.approx(1.0 / 16.0)
    assert np.allclose(trajs[0].positions, [[0.5, 0.25], [0.6, 0.25]])


def test_parse_malformed_row_names_line(tmp_path):
    path = _write(tmp_path, "1 0 0 0\n1 one 1 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_trajectories(path)
    with pytest.raises(ValueError, match="line 1"):
        parse_trajectories(_write(tmp_path, "1 0 0\n"))


def test_parse_non_monotonic_frames_rejected(tmp_path):
    path = _write(tmp_path, "1 5 0 0\n1 5 1 1\n")
    with pytest.raises(ValueError, match="non-monotonic"):
        parse_trajectories(path)
    path = _write(tmp_path, "1 5 0 0\n1 4 1 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_trajectories(path)


def test_parse_drops_large_gaps_and_single_rows(tmp_path):
    # ped 1 has a 6-frame hole (> 5), ped 2 has one row, ped 3 is clean
    text = "1 0 0 0\n1 7 70 0\n2 0 5 5\n3 0 0 0\n3 1 10 0\n"
    trajs = parse_trajectories(_write(tmp_path, text))
    assert [t.ped_id for t in trajs] == ["3"]


def test_parse_gap_of_five_is_filled(tmp_path):
    text = "1 0 0 0\n1 6 60 0\n"
    trajs = parse_trajectories(_write(tmp_path, text))
    assert len(trajs[0]) == 7
    assert np.allclose(trajs[0].positions[:, 0], np.arange(7) * 0.1)


def test_velocity_reconstruction_invariant(tmp_path):
    rng = np.random.default_rng(7)
    lines = []
    for ped in range(10):
        n = int(rng.integers(2, 40))
        xy = np.cumsum(rng.integers(-50, 51, size=(n, 2)), axis=0)
        for i in range(n):
            lines.append(f"{ped} {i} {xy[i, 0]} {xy[i, 1]}")
    path = _write(tmp_path, "\n".join(lines) + "\n")
    for traj in parse_trajectories(path, unit_scale=0.01, fps=16.0):
        recon = traj.positions[:-1] + traj.velocities[1:] * traj.dt
        assert np.max(np.abs(recon - traj.positions[1:])) < 1e-12


def _traj_from_positions(pos, dt=0.04, ped="9", t0=0) -> Trajectory:
    pos = np.asarray(pos, dtype=float)
    vel = np.full_like(pos, np.nan)
    vel[1:] = np.diff(pos, axis=0) / dt
    return Trajectory(ped_id=ped, t0=t0, dt=dt, positions=pos, velocities=vel)


def test_clip_keeps_inside_trajectory():
    pos = np.column_stack([np.linspace(1, 5, 12), np.full(12, 1.0)])
    traj = _traj_from_positions(pos)
    out = clip_to_focus([traj], (0.0, 0.0, 6.0, 3.0), window=8)
    assert len(out) == 1
    assert np.array_equal(out[0].positions, pos)
    assert out[0].t0 == 0


def test_clip_truncates_to_longest_inside_run():
    xs = np.concatenate([np.linspace(-2, -1, 3), np.linspace(0.1, 5.9, 46),
                         np.linspace(7, 8, 3)])
    pos = np.column_stack([xs, np.full(xs.size, 1.0)])
    out = clip_to_focus([_traj_from_positions(pos)], (0.0, 0.0, 6.0, 3.0))
    assert len(out) == 1
    assert out[0].t0 == 3
    assert len(out[0]) == 46
    assert np.all(np.isnan(out[0].velocities[0]))
    assert np.allclose(out[0].velocities[1:],
                       np.diff(pos[3:49], axis=0) / 0.04)


def test_clip_removes_outside_and_short_tracks():
    outside = _traj_from_positions(np.full((12, 2), 50.0))
    short = _traj_from_positions(
        np.column_stack([np.linspace(1, 2, 8), np.full(8, 1.0)]))
    assert clip_to_focus([outside, short], (0.0, 0.0, 6.0, 3.0), window=8) == []


def test_build_samples_window_arithmetic():
    scene = make_corridor()
    for n, expected in [(9, 0), (12, 3)]:
        run = _straight_run("r", n)
        ds = Dataset(scene=scene, runs=(run,), role="train_val", dt=0.04)
        samples = build_samples(ds, PARAMS)
        assert len(samples) == expected == _sample_count_oracle(n, PARAMS.window)


def test_build_samples_count_matches_oracle_random_lengths():
    scene = make_corridor()
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        ds = Dataset(scene=scene, runs=(_straight_run("r", n, speed=0.5),),
                     role="train_val", dt=0.04)
        assert len(build_samples(ds, PARAMS)) == _sample_count_oracle(n, PARAMS.window)


def test_build_samples_standing_still_targets_zero():
    scene = make_corridor()
    pos = np.tile([2.0, 1.5], (12, 1))
    ds = Dataset(scene=scene, runs=(Run("r", (_traj_from_positions(pos),)),),
                 role="train_val", dt=0.04)
    samples = build_samples(ds, PARAMS)
    assert len(samples) == 3
    for s in samples:
        assert np.array_equal(s.target, [0.0, 0.0])
        assert s.X.shape == (8, PARAMS.feature_dim)


def test_build_samples_metadata_and_targets():
    scene = make_corridor()
    run = _straight_run("E050", 12, speed=0.3)
    ds = Dataset(scene=scene, runs=(run,), role="train_val", dt=0.04)
    samples = build_samples(ds, PARAMS)
    assert [s.meta for s in samples] == [("E050", "1", 8), ("E050", "1", 9), ("E050", "1", 10)]
    for s in samples:
        assert np.allclose(s.target, [0.3, 0.0])
        # the velocity slot of the last window row is the subject's current velocity
        assert np.allclose(s.X[-1, :2], [0.3, 0.0])


def test_build_samples_sees_other_pedestrian():
    scene = make_corridor()
    a = _traj_from_positions(
        np.column_stack([np.linspace(1.0, 1.44, 12), np.full(12, 1.5)]), ped="a")
    # b stands 0.5 m ahead of a, inside the social radius the whole time
    b = _traj_from_positions(np.tile([2.2, 1.5], (12, 1)), ped="b")
    ds = Dataset(scene=scene, runs=(Run("r", (a, b)),), role="train_val", dt=0.04)
    with_b = build_samples(ds, PARAMS)
    ds_solo = Dataset(scene=scene, runs=(Run("r", (a,)),), role="train_val", dt=0.04)
    solo = build_samples(ds_solo, PARAMS)
    assert any(not np.array_equal(x.X, y.X) for x, y in zip(with_b, solo))


def _step_features_oracle(subject, step, others, scene, params):
    """One pedestrian step with extract_step against its run's occupancy."""
    position = subject.positions[step]
    frame = subject.t0 + step
    others_pos = []
    others_vel = []
    for other in others:
        local = frame - other.t0
        if 0 <= local < len(other):
            others_pos.append(other.positions[local])
            others_vel.append(velocity_at(other, local))
    module_id = point_in_module(scene, position)
    if module_id is None:
        raise ValueError(
            f"pedestrian {subject.ped_id} at {tuple(position.tolist())} lies outside every module"
        )
    return extract_step(position, subject.velocities[step],
                        np.asarray(others_pos, dtype=float).reshape(-1, 2),
                        np.asarray(others_vel, dtype=float).reshape(-1, 2),
                        active_walls(scene, module_id), active_exit(scene, module_id), params)


def _build_samples_oracle(dataset, params):
    """build_samples as a per-subject loop over scalar feature vectors."""
    w = params.window
    samples = []
    for run in dataset.runs:
        for subject in run.trajectories:
            others = [t for t in run.trajectories if t is not subject]
            feature_cache = {}
            for t in range(w, len(subject) - 1):
                rows = []
                for s in range(t - w + 1, t + 1):
                    if s not in feature_cache:
                        feature_cache[s] = _step_features_oracle(subject, s, others,
                                                                 dataset.scene, params)
                    rows.append(feature_cache[s])
                samples.append((stack_window(rows), subject.velocities[t + 1].copy(),
                                (run.name, subject.ped_id, t)))
    return samples


def _polyline_track(waypoints, ped, t0, n, rng, dt=0.04):
    """n positions along the waypoints at a steady pace, with a small jitter."""
    pts = np.asarray(waypoints, dtype=float)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    at = np.concatenate([[0.0], np.cumsum(seg)])
    u = np.linspace(0.0, at[-1], n)
    pos = np.column_stack([np.interp(u, at, pts[:, 0]), np.interp(u, at, pts[:, 1])])
    return _traj_from_positions(pos + rng.normal(scale=0.01, size=pos.shape), dt=dt,
                                ped=ped, t0=t0)


def test_build_samples_equal_the_scalar_loop_bitwise(monkeypatch):
    rng = np.random.default_rng(11)
    corridor = make_corridor()
    overlapping = Run("overlap", tuple(
        _polyline_track([(0.3, y), (5.7, y + 0.3)], ped=f"c{k}", t0=t0, n=n, rng=rng)
        for k, (y, t0, n) in enumerate([(1.0, 0, 30), (1.4, 3, 25), (1.2, 7, 14),
                                        (2.0, 12, 20), (0.6, 40, 12)])))
    single = Run("single", (_polyline_track([(1.0, 1.5), (4.0, 1.5)], "s", 5, 16, rng),))
    # First and last positions outside every module, every row step inside.
    straddling = Run("straddle", (
        _traj_from_positions(np.column_stack([np.linspace(-0.1, 6.1, 13), np.full(13, 1.5)]),
                             ped="x", t0=2),
        _polyline_track([(5.0, 0.5), (1.0, 2.5)], "y", 0, 18, rng)))
    composite = make_composite()
    path = [(-3.5, 0.0), (1.2, 0.0), (1.2, 4.4), (7.0, 4.4)]
    through = Run("composite", tuple(
        _polyline_track(path, ped=f"k{k}", t0=t0, n=n, rng=rng)
        for k, (t0, n) in enumerate([(0, 60), (4, 55), (9, 70), (30, 40)])))
    params = ExtractionParams(ray_deg=45.0, vision_range=20.0, window=6)
    # The composite run's row steps span more than one chunk of extract_batch
    # rows, so chunk boundaries fall inside it; smaller chunks put them in
    # every run, down to one frame per call.
    assert sum(len(t) - 2 for t in through.trajectories) > crowdsim.ingest._CHUNK_ROWS
    for chunk_rows in (crowdsim.ingest._CHUNK_ROWS, 1, 7):
        monkeypatch.setattr(crowdsim.ingest, "_CHUNK_ROWS", chunk_rows)
        for dataset in (Dataset(corridor, (overlapping, single, straddling), "train_val", 0.04),
                        Dataset(composite, (through,), "test", 0.04)):
            got = build_samples(dataset, params)
            want = _build_samples_oracle(dataset, params)
            assert len(got) == len(want) > 0
            for sample, (x, target, meta) in zip(got, want):
                assert sample.meta == meta
                assert sample.X.tobytes() == x.tobytes()
                assert sample.target.tobytes() == target.tobytes()
    assert len({point_in_module(composite, p) for t in through.trajectories
                for p in t.positions[1:-1]}) == 4


def test_build_samples_row_step_outside_every_module_is_named():
    rng = np.random.default_rng(12)
    inside = _polyline_track([(0.5, 1.0), (5.5, 1.0)], "a", 0, 20, rng)
    pos = _polyline_track([(0.5, 2.0), (5.5, 2.0)], "b", 2, 20, rng).positions.copy()
    pos[9] = (3.0, 3.4)                 # above the corridor's upper wall
    outside = _traj_from_positions(pos, ped="b", t0=2)
    ds = Dataset(make_corridor(), (Run("r", (inside, outside)),), "train_val", 0.04)
    with pytest.raises(ValueError) as want:
        _build_samples_oracle(ds, PARAMS)
    with pytest.raises(ValueError) as got:
        build_samples(ds, PARAMS)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "pedestrian b at (3.0, 3.4) lies outside every module"


def test_build_samples_non_finite_target_from_archive_is_named(tmp_path):
    # Python's json reads and writes NaN, so a dataset.json from outside can
    # carry a non-finite velocity.  Errors come in step order; at one step
    # the outside-module error comes first.  Velocities that only feed
    # features are checked too: a window row's, and every one of a track too
    # short to yield samples (c), whose velocities still reach its neighbours.
    rng = np.random.default_rng(12)
    tracks = (_polyline_track([(0.5, 1.0), (5.5, 1.0)], "a", 0, 20, rng),
              _polyline_track([(0.5, 2.0), (5.5, 2.0)], "b", 2, 20, rng),
              _polyline_track([(0.5, 1.5), (1.0, 1.5)], "c", 4, 6, rng))
    doc = dataset_to_dict(Dataset(make_corridor(), (Run("r", tracks),), "train_val", 0.04),
                          "corridor")

    def build(outside_step=None, nan_target_step=None, ped=1):
        broken = json.loads(json.dumps(doc))
        track = broken["runs"][0]["trajectories"][ped]
        if outside_step is not None:
            track["positions"][outside_step] = [3.0, 3.4]   # above the upper wall
        if nan_target_step is not None:
            track["velocities"][nan_target_step - 1] = [float("nan"), 0.0]   # rows from step 1
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(broken))
        assert (nan_target_step is None) == ("NaN" not in path.read_text())
        loaded = dataset_from_dict(json.loads(path.read_text()), make_corridor())
        with pytest.raises(ValueError) as err:
            build_samples(loaded, PARAMS)
        return str(err.value)

    nan_msg = "non-finite target velocity for pedestrian b at step {}"
    out_msg = "pedestrian b at (3.0, 3.4) lies outside every module"
    assert build(nan_target_step=11) == nan_msg.format(11)
    assert build(nan_target_step=PARAMS.window + 1) == nan_msg.format(PARAMS.window + 1)
    assert build(outside_step=10, nan_target_step=11) == out_msg        # same row step
    assert build(outside_step=12, nan_target_step=11) == nan_msg.format(11)
    assert build(outside_step=9, nan_target_step=14) == out_msg
    row_msg = "non-finite velocity for pedestrian {} at step {}"
    assert build(nan_target_step=3) == row_msg.format("b", 3)             # window row
    assert build(nan_target_step=PARAMS.window) == row_msg.format("b", PARAMS.window)
    assert build(nan_target_step=2, ped=2) == row_msg.format("c", 2)      # short track
    assert build(nan_target_step=5, ped=2) == row_msg.format("c", 5)


def test_split_sizes_and_partition():
    samples = list(range(100))
    train, val = split_train_val(samples, ratio=4, seed=11)
    assert len(train) == 80 and len(val) == 20
    assert sorted(train + val) == samples
    assert set(train).isdisjoint(val)
    t5, v5 = split_train_val(list(range(5)), ratio=4, seed=0)
    assert len(t5) == 4 and len(v5) == 1


def test_split_deterministic_and_seed_sensitive():
    samples = list(range(200))
    first = split_train_val(samples, seed=42)
    second = split_train_val(samples, seed=42)
    assert first == second
    other = split_train_val(samples, seed=43)
    assert first != other


def test_split_partition_property_random_sizes():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(0, 60))
        samples = list(range(n))
        train, val = split_train_val(samples, seed=int(rng.integers(1000)))
        assert sorted(train + val) == samples
        assert len(val) == n // 5


def test_dataset_rejects_mismatched_dt():
    scene = make_corridor()
    run = _straight_run("r", 10, dt=0.0625)
    with pytest.raises(ValueError, match="dt"):
        Dataset(scene=scene, runs=(run,), role="train_val", dt=0.04)


def test_dataset_archive_round_trip():
    scene = make_corridor()
    run = _straight_run("W110", 12)
    ds = Dataset(scene=scene, runs=(run,), role="train_val", dt=0.04)
    doc = dataset_to_dict(ds, scene_ref="corridor")
    back = dataset_from_dict(doc, scene)
    assert back.role == "train_val"
    assert back.runs[0].name == "W110"
    orig, rest = run.trajectories[0], back.runs[0].trajectories[0]
    assert np.array_equal(orig.positions, rest.positions)
    assert np.array_equal(orig.velocities[1:], rest.velocities[1:])
    assert np.all(np.isnan(rest.velocities[0]))


def test_samples_to_arrays_shapes():
    scene = make_corridor()
    ds = Dataset(scene=scene, runs=(_straight_run("r", 12),), role="train_val", dt=0.04)
    x, y = samples_to_arrays(build_samples(ds, PARAMS))
    assert x.shape == (3, 8, PARAMS.feature_dim)
    assert y.shape == (3, 2)
    assert x.dtype == np.float64

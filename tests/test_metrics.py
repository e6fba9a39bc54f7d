import numpy as np
import pytest

from crowdsim.features import ExtractionParams
from crowdsim.ingest import Run, Trajectory
from crowdsim.metrics import (FDPoint, MetricReport, Track, ade, evaluate_run, fde,
                              fundamental_diagram, parameter_sensitivity, tte)
from crowdsim.scene_library import make_corridor
from crowdsim.simulate import SimulatedTrajectory, SimulationConfig, seeds_from_run
from crowdsim.social_force import SFParams, sf_run

from oracles import rect_contains


def _track(ped_id, positions, t0=0, dt=0.0625):
    positions = np.asarray(positions, dtype=float)
    return Track(ped_id=ped_id, steps=t0 + np.arange(len(positions)),
                 positions=positions, dt=dt)


def _census_oracle(tracks, area, frame):
    # independent per-frame occupancy count using plain comparisons
    xmin, ymin, xmax, ymax = area
    count = 0
    for track in tracks:
        for step, (x, y) in zip(track.steps, track.positions):
            if step == frame and xmin <= x <= xmax and ymin <= y <= ymax:
                count += 1
    return count


def test_identical_trajectories_score_zero():
    pos = np.cumsum(np.ones((10, 2)) * 0.05, axis=0)
    a, b = _track("p", pos), _track("p", pos.copy())
    assert ade(a, b) == 0.0
    assert fde(a, b) == 0.0
    assert tte(a, b) == 0.0


def test_constant_shift_gives_offset_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        pos = rng.normal(size=(n, 2))
        u = rng.normal(size=2)
        a, b = _track("p", pos), _track("p", pos + u)
        expected = float(np.linalg.norm(u))
        assert ade(a, b) == pytest.approx(expected, abs=1e-12)
        assert fde(a, b) == pytest.approx(expected, abs=1e-12)
        assert tte(a, b) == 0.0


def test_metrics_symmetric_in_arguments():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = _track("p", rng.normal(size=(int(rng.integers(2, 15)), 2)))
        b = _track("p", rng.normal(size=(int(rng.integers(2, 15)), 2)))
        assert ade(a, b) == ade(b, a)
        assert fde(a, b) == fde(b, a)
        assert tte(a, b) == tte(b, a)


def test_ade_uses_overlap_only():
    base = np.zeros((6, 2))
    longer = np.zeros((9, 2))
    longer[6:] = 100.0     # steps beyond the shorter trajectory are ignored
    assert ade(_track("p", base), _track("p", longer)) == 0.0


def test_ade_respects_offset_start_steps():
    # same positions recorded under shifted absolute steps never align
    pos = np.arange(12, dtype=float).reshape(6, 2)
    a = _track("p", pos, t0=0)
    b = _track("p", pos[2:], t0=2)
    assert ade(a, b) == 0.0


def test_no_overlap_raises():
    a = _track("p", np.zeros((3, 2)), t0=0)
    b = _track("p", np.zeros((3, 2)), t0=10)
    with pytest.raises(ValueError, match="overlap"):
        ade(a, b)


def test_fde_uses_last_point_inside_focus():
    area = (0.0, 0.0, 4.0, 3.0)
    sim = np.array([[1.0, 1.0], [3.0, 1.0], [9.0, 1.0]])   # leaves the area
    exp = np.array([[1.0, 1.0], [3.5, 1.0], [8.0, 1.0]])
    got = fde(_track("p", sim), _track("p", exp), focus_area=area)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_fde_errors_when_never_in_focus():
    area = (0.0, 0.0, 1.0, 1.0)
    a = _track("p", np.full((3, 2), 5.0))
    with pytest.raises(ValueError, match="focus"):
        fde(a, a, focus_area=area)


def test_tte_two_steps_late_at_sixteen_hz():
    area = (0.0, 0.0, 4.0, 3.0)
    dt = 0.0625
    exp = np.linspace([0.5, 1.0], [3.5, 1.0], 20)
    sim = np.linspace([0.5, 1.0], [3.5, 1.0], 22)
    got = tte(_track("p", sim, dt=dt), _track("p", exp, dt=dt), focus_area=area)
    assert got == pytest.approx(2 * dt, abs=1e-12)


def test_tte_counts_span_between_first_and_last_in_focus():
    area = (1.0, 0.0, 3.0, 2.0)
    dt = 0.0625
    # enters the area at step 2, leaves after step 5: span 3 steps
    pos = np.array([[0.0, 1.0], [0.5, 1.0], [1.5, 1.0], [2.0, 1.0],
                    [2.5, 1.0], [2.9, 1.0], [3.5, 1.0], [4.0, 1.0]])
    still = np.array([[1.5, 1.0], [1.6, 1.0]])   # span 1 step
    got = tte(_track("a", pos, dt=dt), _track("b", still, dt=dt), focus_area=area)
    assert got == pytest.approx((5 - 2) * dt - 1 * dt, abs=1e-12)


def test_simulated_trajectory_is_a_track_starting_at_its_entry():
    pos = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
    sim = SimulatedTrajectory(ped_id="a", steps=3 + np.arange(3), dt=0.04, positions=pos,
                              module_ids=("m", "m", "m"), reset_flags=np.zeros(3, dtype=bool),
                              exited=True)
    assert isinstance(sim, Track)
    assert sim.steps.tolist() == [3, 4, 5]
    np.testing.assert_array_equal(sim.positions, pos)
    assert ade(sim, _track("a", pos, t0=3)) == 0.0
    with pytest.raises(ValueError, match="strictly increasing"):
        SimulatedTrajectory(ped_id="a", steps=[3, 3, 4], dt=0.04, positions=pos,
                            module_ids=("m", "m", "m"), reset_flags=np.zeros(3, dtype=bool),
                            exited=True)


def _walker(ped_id, t0, n, y, dt=0.0625):
    pos = np.column_stack([0.5 + dt * np.arange(n), np.full(n, y)])
    vel = np.full_like(pos, np.nan)
    vel[1:] = 1.0, 0.0
    return Trajectory(ped_id=ped_id, t0=t0, dt=dt, positions=pos, velocities=vel)


def test_run_tracks_count_steps_from_the_earliest_track():
    # b, the earliest track, is too short to seed any window; it still sets
    # step 0.  Positions are the trajectories' own, and dt is the one given.
    a, b = _walker("a", 7, 3, 1.0), _walker("b", 4, 2, 2.0)
    tracks = Run("r", (a, b)).tracks(0.0625)
    assert [(t.ped_id, t.steps.tolist()) for t in tracks] == [("a", [3, 4, 5]), ("b", [0, 1])]
    assert all(isinstance(t, Track) and t.dt == 0.0625 for t in tracks)
    assert tracks[0].positions.tobytes() == a.positions.tobytes()
    assert Run("empty", ()).tracks(0.0625) == []


def test_metrics_reject_recorded_trajectories():
    # A corridor run whose tracks start at frames 3 and 5, simulated by
    # social force.  Against Run.tracks the steps align; an ingest
    # Trajectory counts from its own frame, so the metrics refuse it
    # rather than pair each simulated step with another recorded one.
    dt, w = 0.0625, 8
    run = Run("r", (_walker("a", 3, 40, 1.0), _walker("b", 5, 40, 2.0)))
    tracks = run.tracks(dt)
    config = SimulationConfig(scene=make_corridor(), dt=dt, params=ExtractionParams(window=w),
                              pedestrians=tuple(seeds_from_run(tracks, w)), max_steps=60)
    sim = sf_run(config, SFParams(), rng=np.random.default_rng(0)).trajectories
    report = evaluate_run(sim, tracks, run="r", model="sf")
    assert report.ped_ids == ("a", "b")
    for got, track in zip(sorted(sim, key=lambda t: t.ped_id), tracks):
        assert got.steps[:w].tolist() == track.steps[:w].tolist() == list(range(
            track.steps[0], track.steps[0] + w))
    with pytest.raises(TypeError, match="Trajectory"):
        evaluate_run(sim, run.trajectories, run="r", model="sf")
    with pytest.raises(TypeError, match="Trajectory"):
        fundamental_diagram(run.trajectories, area=(0.0, 0.0, 6.0, 3.0), dt=dt)


def test_evaluate_run_matches_ids_and_warns_on_mismatch():
    pos = np.cumsum(np.full((10, 2), 0.05), axis=0)
    sims = [_track("a", pos), _track("b", pos + 0.1), _track("only_sim", pos)]
    exps = [_track("a", pos), _track("b", pos), _track("only_exp", pos)]
    with pytest.warns(RuntimeWarning, match="only_exp"):
        report = evaluate_run(sims, exps, run="r0", model="tcn")
    assert report.ped_ids == ("a", "b")
    assert report.ade_values[0] == 0.0
    assert report.ade_values[1] == pytest.approx(np.hypot(0.1, 0.1), abs=1e-12)
    rows = report.to_rows()
    assert rows[0][:3] == ["r0", "tcn", "a"]
    assert len(rows) == 2


def test_evaluate_run_no_common_ids_raises():
    pos = np.zeros((3, 2))
    with pytest.raises(ValueError, match="common"):
        evaluate_run([_track("x", pos)], [_track("y", pos)], run="r", model="sf")


def test_evaluate_run_excludes_recorded_tracks_outside_the_focus_area():
    area = (0.0, 0.0, 1.0, 1.0)
    inside = np.cumsum(np.full((10, 2), 0.05), axis=0)
    outside = inside + 5.0
    sims = [_track("a", inside), _track("b", inside), _track("c", inside)]
    exps = [_track("a", inside), _track("b", outside), _track("c", outside)]
    with pytest.warns(RuntimeWarning, match="excluding 2 pedestrians") as caught:
        report = evaluate_run(sims, exps, run="r", model="tcn", focus_area=area)
    assert len(caught) == 1
    assert report.ped_ids == ("a",)
    assert report.fde_values[0] == 0.0


def test_evaluate_run_raises_when_simulated_track_misses_the_focus_area():
    area = (0.0, 0.0, 1.0, 1.0)
    inside = np.cumsum(np.full((10, 2), 0.05), axis=0)
    with pytest.raises(ValueError, match="'a' never enters the focus area"):
        evaluate_run([_track("a", inside + 5.0)], [_track("a", inside)],
                     run="r", model="sf", focus_area=area)


def test_evaluate_run_raises_when_no_recorded_track_enters_the_focus_area():
    area = (0.0, 0.0, 1.0, 1.0)
    outside = np.full((4, 2), 5.0)
    with pytest.warns(RuntimeWarning, match="excluding 1 pedestrians"):
        with pytest.raises(ValueError, match="no recorded track enters the focus area"):
            evaluate_run([_track("a", outside)], [_track("a", outside)],
                         run="r", model="sf", focus_area=area)


def test_fd_single_pedestrian_walking_one_metre_per_second():
    # one occupant in a 2 m x 2 m area at exactly 1 m/s:
    # density 0.25, speed 1.0, flow 0.25, all exact
    dt = 0.0625
    pos = np.stack([np.arange(8) * dt + 0.5, np.full(8, 1.0)], axis=1)
    points = fundamental_diagram([_track("p", pos, dt=dt)],
                                 area=(0.0, 0.0, 2.0, 2.0), dt=dt)
    assert len(points) == 7      # first frame has no backward difference
    for pt in points:
        assert pt.density == 0.25
        assert pt.speed == 1.0
        assert pt.flow == 0.25


def test_fd_flow_identity_holds_exactly():
    rng = np.random.default_rng(3)
    tracks = [_track(f"p{i}", rng.uniform(0, 3, size=(int(rng.integers(2, 20)), 2)),
                     t0=int(rng.integers(0, 5))) for i in range(6)]
    points = fundamental_diagram(tracks, area=(0.0, 0.0, 3.0, 3.0), dt=0.0625)
    assert points
    for pt in points:
        assert pt.flow == pt.density * pt.speed


def test_fd_counts_match_census_oracle():
    rng = np.random.default_rng(17)
    area = (0.5, 0.5, 2.5, 2.5)
    size = 4.0
    for _ in range(10):
        tracks = [_track(f"p{i}",
                         rng.uniform(0, 3, size=(int(rng.integers(2, 15)), 2)),
                         t0=int(rng.integers(0, 4)))
                  for i in range(int(rng.integers(1, 6)))]
        points = fundamental_diagram(tracks, area=area, dt=0.0625)
        for pt in points:
            frame = round(pt.time / 0.0625)
            assert pt.density * size == pytest.approx(
                _census_oracle(tracks, area, frame), abs=1e-9)


def test_fd_omits_empty_frames():
    dt = 0.0625
    pos = np.array([[1.0, 1.0], [1.1, 1.0], [9.0, 9.0], [9.1, 9.0],
                    [1.2, 1.0], [1.3, 1.0]])
    points = fundamental_diagram([_track("p", pos, dt=dt)],
                                 area=(0.0, 0.0, 2.0, 2.0), dt=dt)
    times = [round(pt.time / dt) for pt in points]
    assert times == [1, 4, 5]    # frames 2, 3 are outside; frame 0 has no speed


def test_fd_density_halves_when_area_doubles():
    dt = 0.0625
    pos = np.stack([np.arange(6) * 0.05 + 0.5, np.full(6, 0.5)], axis=1)
    small = fundamental_diagram([_track("p", pos, dt=dt)], (0.0, 0.0, 1.0, 1.0), dt)
    big = fundamental_diagram([_track("p", pos, dt=dt)], (0.0, 0.0, 2.0, 1.0), dt)
    assert len(small) == len(big) == 5
    for s, b in zip(small, big):
        assert s.density == pytest.approx(2 * b.density, rel=1e-12)
        assert s.speed == b.speed


def _fundamental_diagram_loop(tracks, area, dt):
    """The per-(frame, track) loop that fundamental_diagram replaced: the
    oracle it must equal bit for bit."""
    xmin, ymin, xmax, ymax = (float(v) for v in area)
    size = (xmax - xmin) * (ymax - ymin)
    points = []
    for frame in sorted({int(s) for t in tracks for s in t.steps}):
        count = 0
        speeds = []
        for track in tracks:
            where = np.flatnonzero(track.steps == frame)
            if where.size == 0:
                continue
            i = int(where[0])
            if not rect_contains(area, track.positions[i]):
                continue
            count += 1
            if i > 0 and track.steps[i - 1] == frame - 1:
                speeds.append(float(np.linalg.norm(
                    track.positions[i] - track.positions[i - 1]) / track.dt))
        if count == 0 or not speeds:
            continue
        density = count / size
        speed = float(np.mean(speeds))
        points.append(FDPoint(time=frame * dt, density=density, speed=speed,
                              flow=density * speed))
    return points


def test_fd_equals_the_frame_loop_bitwise():
    """Random tracks with gaps in their steps, points on the area's edges,
    up to 30 occupants per frame (np.mean sums eight or more pairwise) and
    per-track dt."""
    rng = np.random.default_rng(23)
    area = (0.5, 0.25, 2.5, 2.0)
    for _ in range(40):
        tracks = []
        for i in range(int(rng.integers(0, 30))):
            n = int(rng.integers(1, 25))
            steps = int(rng.integers(0, 6)) + np.cumsum(rng.choice([1, 1, 1, 2, 4], size=n))
            pos = rng.uniform(0.0, 3.0, size=(n, 2))
            edge = rng.random(n) < 0.2
            pos[edge, 0] = rng.choice([0.5, 2.5], size=int(edge.sum()))
            tracks.append(Track(ped_id=f"p{i}", steps=steps, positions=pos,
                                dt=float(rng.choice([0.0625, 0.04, 0.1]))))
        got = fundamental_diagram(tracks, area, 0.0625)
        want = _fundamental_diagram_loop(tracks, area, 0.0625)
        assert got == want


def test_fd_rejects_degenerate_area():
    with pytest.raises(ValueError, match="area"):
        fundamental_diagram([], area=(0.0, 0.0, 0.0, 1.0), dt=0.0625)


def _report(mean):
    vals = np.array([mean])
    return MetricReport(run="r", model="m", ped_ids=("p",),
                        ade_values=vals, fde_values=vals, tte_values=vals)


def test_sensitivity_summarises_grid_with_spreads():
    combos = [(de, beta) for de in (20.0, 100.0) for beta in (5.0, 10.0, 15.0, 18.0)]
    reports = [(c, _report(0.1 * i)) for i, c in enumerate(combos)]
    summary = parameter_sensitivity(reports)
    assert len(summary.rows) == 8
    assert summary.spread_ade == pytest.approx(0.7, abs=1e-12)
    assert summary.spread_fde == summary.spread_ade
    assert all(len(r) == 5 for r in summary.rows)
    assert [r[:2] for r in summary.rows] == sorted(combos)


def test_sensitivity_averages_repeated_combinations():
    reports = [((20.0, 5.0), _report(0.2)), ((20.0, 5.0), _report(0.4)),
               ((100.0, 5.0), _report(0.5))]
    summary = parameter_sensitivity(reports)
    by_combo = {r[:2]: r[2] for r in summary.rows}
    assert by_combo[(20.0, 5.0)] == pytest.approx(0.3, abs=1e-12)
    assert summary.spread_ade == pytest.approx(0.2, abs=1e-12)


def test_sensitivity_single_combination_rejected():
    reports = [((20.0, 5.0), _report(0.2)), ((20.0, 5.0), _report(0.3))]
    with pytest.raises(ValueError, match="at least 2"):
        parameter_sensitivity(reports)


def test_track_validation():
    with pytest.raises(ValueError, match="increasing"):
        Track(ped_id="p", steps=np.array([0, 0, 1]),
              positions=np.zeros((3, 2)), dt=0.04)
    with pytest.raises(ValueError, match="empty"):
        Track(ped_id="p", steps=np.array([], dtype=int),
              positions=np.zeros((0, 2)), dt=0.04)

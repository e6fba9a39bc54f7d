"""Training windows over shared feature rows, against the stacked arrays."""

import tracemalloc

import numpy as np

import crowdsim.ingest
from crowdsim.features import ExtractionParams
from crowdsim.ingest import Dataset, Run, SampleSet, Trajectory, build_samples
from crowdsim.network import NetworkConfig, TrainingConfig, VelocityPredictor, batch_loss, train
from crowdsim.scene_library import make_corridor

from oracles import sampleset_getitem, sampleset_iter, samples_to_arrays

PARAMS = ExtractionParams(ray_deg=45.0, vision_range=20.0, window=8)


def _track(ped: str, t0: int, n: int, y: float, rng, dt: float = 0.04) -> Trajectory:
    """n positions across the corridor at height y, with a small jitter."""
    pos = np.column_stack([np.linspace(0.3, 5.7, n), np.full(n, y)])
    pos += rng.normal(scale=0.01, size=pos.shape)
    vel = np.full_like(pos, np.nan)
    vel[1:] = np.diff(pos, axis=0) / dt
    return Trajectory(ped_id=ped, t0=t0, dt=dt, positions=pos, velocities=vel)


def _dataset(seed: int = 0, length: int = 40) -> Dataset:
    """Two runs of overlapping tracks, tracks too short for a sample
    between them, so rows and windows do not line up with track starts."""
    rng = np.random.default_rng(seed)
    runs = []
    for r, spec in enumerate([[(0, length, 1.0), (3, 6, 1.5), (5, length // 2, 2.0)],
                              [(2, 9, 0.8), (0, length + 7, 2.2), (9, 10, 1.4),
                               (4, length, 1.6)]]):
        runs.append(Run(f"run{r}", tuple(_track(f"p{k}", t0, n, y, rng)
                                         for k, (t0, n, y) in enumerate(spec))))
    return Dataset(make_corridor(), tuple(runs), "train_val", 0.04)


def _counted_rows(monkeypatch, params):
    """The samples of two datasets and the number of rows extract_batch returned."""
    returned, extract = [], crowdsim.ingest.extract_batch

    def counted(*args, **kwargs):
        out = extract(*args, **kwargs)
        returned.append(len(out))
        return out

    monkeypatch.setattr(crowdsim.ingest, "extract_batch", counted)
    sets = [build_samples(_dataset(seed), params) for seed in (0, 1)]
    return sets, sum(returned)


def _assert_batch_equals(batch: np.ndarray, want: np.ndarray) -> None:
    assert batch.shape == want.shape and batch.dtype == want.dtype
    assert batch.tobytes() == want.tobytes()
    assert np.moveaxis(batch, -2, 0).flags.c_contiguous      # the time-major buffer


def test_window_batches_equal_the_stacked_arrays_bitwise():
    samples = build_samples(_dataset(), PARAMS)
    x, y = samples_to_arrays(list(sampleset_iter(samples)))
    windows = samples.windows
    assert windows.shape == x.shape and len(windows) == len(x) > 100
    assert samples.targets.tobytes() == y.tobytes()
    rng = np.random.default_rng(5)
    for size in (1, 2, 17, len(x)):
        idx = rng.choice(len(x), size=size, replace=False)
        _assert_batch_equals(windows[idx], x[idx])
    # The slices train and batch_loss take: the first batch, and chunks.
    for part in (slice(0, 32), slice(0, len(x)), slice(64, 64 + 2048), slice(len(x) - 3, None)):
        _assert_batch_equals(windows[part], x[part])
    for i in (0, len(x) - 1):
        assert windows[i].tobytes() == x[i].tobytes() == sampleset_getitem(samples, i).X.tobytes()
    x_tr, y_tr, x_va, y_va = samples.split(ratio=4, seed=3)
    tr, va = crowdsim.ingest.split_train_val(range(len(x)), ratio=4, seed=3)
    for got, targets, idx in ((x_tr, y_tr, tr), (x_va, y_va, va)):
        _assert_batch_equals(got[np.arange(len(got))], x[idx])
        _assert_batch_equals(got[1:len(got) - 1], x[idx][1:-1])
        assert targets.tobytes() == y[idx].tobytes()


def test_concatenated_sets_equal_the_stacked_arrays_bitwise(monkeypatch):
    sets, _ = _counted_rows(monkeypatch, PARAMS)
    joined = SampleSet.concatenate(sets)
    x, y = samples_to_arrays([s for part in sets for s in sampleset_iter(part)])
    assert len(joined) == len(x)
    _assert_batch_equals(joined.windows[:], x)
    assert joined.targets.tobytes() == y.tobytes()
    assert list(joined.meta) == [m for part in sets for m in part.meta]
    assert SampleSet.concatenate(sets[:1]) is sets[0]


def test_train_and_validation_share_one_row_per_extracted_row(monkeypatch):
    sets, extracted = _counted_rows(monkeypatch, PARAMS)
    x_tr, _, x_va, _ = SampleSet.concatenate(sets).split(ratio=4, seed=0)
    assert x_tr.rows is x_va.rows
    assert x_tr.rows.shape == (extracted, PARAMS.feature_dim)
    assert len(x_tr) + len(x_va) == sum(len(s) for s in sets)


def test_train_on_windows_equals_train_on_stacked_arrays_bitwise():
    samples = build_samples(_dataset(), PARAMS)
    x_tr, y_tr, x_va, y_va = samples.split(ratio=4, seed=1)
    a_tr, a_va = x_tr[:], x_va[:]
    assert len(x_va) > 10
    net_cfg = NetworkConfig(input_dim=PARAMS.feature_dim, tcn_channels=(4, 5, 6),
                            kernel_size=3, dropout_rate=0.2)
    cfg = TrainingConfig(learning_rate=1e-3, iterations=8, batch_size=48, val_every=3, seed=4)
    results = []
    for x_train, x_val in ((x_tr, x_va), (np.ascontiguousarray(a_tr), np.ascontiguousarray(a_va))):
        net = VelocityPredictor(net_cfg, np.random.default_rng(9))
        results.append(train(net, x_train, y_tr, x_val, y_va, cfg))
        assert batch_loss(net, x_val, y_va, chunk=7) == batch_loss(net, a_va, y_va, chunk=7)
    got, want = results
    assert got.history == want.history and len(got.history) == 4
    assert (got.best_iteration, got.best_val_loss) == (want.best_iteration, want.best_val_loss)
    assert got.state.keys() == want.state.keys()
    for name, arr in got.state.items():
        assert arr.tobytes() == want.state[name].tobytes(), name


def test_building_the_training_set_stays_below_one_stacked_copy():
    # Tracks far longer than the window: each row is read by up to w windows,
    # so stacking the windows takes about w times the rows' memory.
    params = ExtractionParams(ray_deg=5.0, vision_range=20.0, window=8)
    dataset = _dataset(seed=2, length=160)
    tracemalloc.start()
    try:
        samples = build_samples(dataset, params)
        x_tr, y_tr, x_va, y_va = samples.split(ratio=4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, w, d = samples.windows.shape
    assert n > 400
    assert peak < n * w * d * 8, (peak, n * w * d * 8)

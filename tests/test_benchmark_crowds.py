"""The benchmark's crowds (perfbench/inputs.py): the slot-array simulator
against the list reference, and the trace contract perfbench's check reads.

perfbench's files are loaded read-only, by path, under their own module
names, so nothing of perfbench goes on sys.path.
"""

import importlib.util
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from crowdsim.cli import _load_run, main
from crowdsim.io import load_checkpoint, read_csv, substream
from crowdsim.network import VelocityPredictor
from crowdsim.scene_library import resolve_scene
from crowdsim.simulate import SimulationConfig, Simulator, seeds_from_run
from crowdsim.social_force import SFParams, _SocialForceSimulator, draw_desired_speeds

from oracles import ListSimulator, ListSocialForceSimulator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHECKPOINT = PERFBENCH / "checkpoint.json"
WINDOW = 8                          # the window of perfbench's crowd and checkpoint
# tracer targets that no code defines any more (ROADMAP item 1)
DEAD_TRACER_NAMES = {
    "crowdsim.simulate.extract_step", "crowdsim.ingest.extract_step",
    "crowdsim.features.extract_social", "crowdsim.features.wall_points_in_disk",
    "crowdsim.features.extract_visual", "crowdsim.features.ray_cast_batch",
    "crowdsim.simulate.first_wall_crossing", "crowdsim.social_force.first_wall_crossing",
    "crowdsim.simulate.point_in_module", "crowdsim.social_force.point_in_module",
    "crowdsim.ingest.point_in_module",
    "crowdsim.simulate.segment_crossing", "crowdsim.social_force.segment_crossing",
    "crowdsim.social_force.desired_direction", "crowdsim.cli.samples_to_arrays",
}


@cache
def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@cache
def _net():
    ckpt = load_checkpoint(CHECKPOINT)
    net = VelocityPredictor(ckpt.network)
    net.load_state_dict(ckpt.state)
    return ckpt.extraction, net.freeze()      # as `simulate` runs it


def _crowd_archive(tmp_path, seed: int, steps: int) -> Path:
    path = tmp_path / f"crowd_{seed}_{steps}.json"
    _perfbench("inputs").write_crowd_archive(np.random.default_rng(seed),
                                             resolve_scene("composite"), path, WINDOW, steps)
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed, steps", [(1, 32), (309, 32), (309, 120)])
def test_benchmark_crowds_give_the_list_reference_trajectories(tmp_path, seed, steps):
    run, dt = _load_run(_crowd_archive(tmp_path, seed, steps), "crowd", resolve_scene("composite"))
    params, net = _net()
    config = SimulationConfig(scene=resolve_scene("composite"), dt=dt, params=params,
                              pedestrians=tuple(seeds_from_run(run.tracks(dt), WINDOW)),
                              max_steps=steps)
    speeds = draw_desired_speeds([s.ped_id for s in config.pedestrians],
                                 substream(seed, "sf-speeds"), SFParams())
    runs = [(Simulator(config, net).run(), ListSimulator(config, net).run()),
            (_SocialForceSimulator(config, SFParams(), speeds).run(),
             ListSocialForceSimulator(config, SFParams(), speeds).run())]
    for got, want in runs:
        assert len(got.trajectories) == len(config.pedestrians)
        assert got.to_rows("crowd") == want.to_rows("crowd")
        for a, b in zip(got.trajectories, want.trajectories):
            assert a.positions.tobytes() == b.positions.tobytes()
            assert a.reset_flags.tobytes() == b.reset_flags.tobytes()
            assert (a.exited, a.truncated) == (b.exited, b.truncated)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_predictor_windows_are_one_time_major_gather(tmp_path, monkeypatch):
    # Every step's windows equal the pedestrian-major gather of the ring,
    # ring[active[moved][:, None], cols], bit for bit.  They are the
    # transposed view of a C-contiguous (w, n, D) gather, and the first
    # block's conv reads that gather itself, not a copy.
    run, dt = _load_run(_crowd_archive(tmp_path, 1, 32), "crowd", resolve_scene("composite"))
    params, net = _net()
    config = SimulationConfig(scene=resolve_scene("composite"), dt=dt, params=params,
                              pedestrians=tuple(seeds_from_run(run.tracks(dt), WINDOW)),
                              max_steps=32)
    windows, shared = [None], []        # the latest step's windows

    class Checked(Simulator):
        def _windows(self, active, moved, pos, vel, t):
            x = super()._windows(active, moved, pos, vel, t)
            want = self._ring[active[moved][:, None], np.arange(t + 1, t + WINDOW + 1) % WINDOW]
            assert x.shape == want.shape and x.tobytes() == want.tobytes()
            assert x.transpose(1, 0, 2).flags.c_contiguous
            windows[0] = x
            return x

    conv = net.blocks[0].conv1
    forward = conv.forward

    def first_conv(z, *args, **kwargs):
        shared.append(np.shares_memory(z, windows[0]))
        return forward(z, *args, **kwargs)

    monkeypatch.setattr(conv, "forward", first_conv)
    Checked(config, net).run()
    assert len(shared) > 20 and all(shared)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_benchmark_trace_contract(tmp_path):
    """perfbench's trace check counts one force-law call per moved
    social-force pedestrian-step and one predicted row per moved TCN
    pedestrian-step, through the tracer's PATCHES table; moved steps are a
    pedestrian's CSV rows less the window."""
    tracing = _perfbench("tracing")
    targets = [("crowdsim.social_force", "sf_acceleration"),
               ("crowdsim.network:VelocityPredictor", "predict"),
               ("crowdsim.simulate:Simulator", "step"),
               ("crowdsim.cli", "sf_run")]
    patched = {(spec, attr) for spec, attr, *_ in tracing.PATCHES}
    assert set(targets) <= patched
    # Every other entry resolves too, but for the names the table already
    # lists that no code defines; a change that mends the table may drop
    # any of them.
    unresolved = {f"{spec}.{attr}" for spec, attr in patched
                  if not callable(getattr(tracing._owner(spec), attr, None))}
    assert unresolved <= DEAD_TRACER_NAMES, sorted(unresolved - DEAD_TRACER_NAMES)
    assert "step" not in vars(_SocialForceSimulator)    # traced as Simulator.step

    archive, steps = _crowd_archive(tmp_path, seed=7, steps=20), 20
    tracer = tracing.Tracer()
    commands = {}
    with tracer.patched():
        for model in ("tcn", "sf"):
            checkpoint = ["--checkpoint", str(CHECKPOINT)] if model == "tcn" else []
            with tracer.command(f"simulate.{model}") as cid:
                assert main(["simulate", "--scene", "composite", "--data", str(archive),
                             "--model", model, *checkpoint, "--run", "crowd",
                             "--max-steps", str(steps), "--seed", "7",
                             "--out", str(tmp_path / model)]) == 0
            commands[model] = cid
    assert not {f"{spec}.{attr}" for spec, attr in targets} & set(tracer.missing)

    for model, name, counted in (("tcn", "network.predict", "amount"),
                                 ("sf", "social_force.sf_acceleration", "calls")):
        header, rows = read_csv(tmp_path / model / "trajectories.csv")
        per_ped = Counter(r[header.index("ped_id")] for r in rows)
        moved = sum(max(0, n - WINDOW) for n in per_ped.values())
        totals = tracing.summarise([s for s in tracer.spans if s.command == commands[model]])
        assert moved > 0 and totals["simulate.step"].calls == steps
        assert getattr(totals[name], counted) == moved, model

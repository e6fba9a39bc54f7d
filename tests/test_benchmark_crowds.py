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
    run, dt = _load_run(_crowd_archive(tmp_path, seed, steps), "crowd")
    params, net = _net()
    config = SimulationConfig(scene=resolve_scene("composite"), dt=dt, params=params,
                              pedestrians=tuple(seeds_from_run(run.trajectories, WINDOW)),
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
    for spec, attr in targets:
        assert (spec, attr) in patched
        assert callable(getattr(tracing._owner(spec), attr, None)), f"{spec}.{attr}"
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

import json
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import crowdsim.cli
from crowdsim.cli import build_parser, main
from crowdsim.features import ExtractionParams
from crowdsim.ingest import Dataset, Run, Trajectory, dataset_to_dict
from crowdsim.io import load_checkpoint, read_csv
from crowdsim.network import NetworkConfig, TrainingConfig
from crowdsim.scene_library import make_corridor


def _write_raw(path, n_peds=3, n_frames=40, origin_cm=(0.0, 0.0)):
    # centimetre coordinates, 16 fps walkers at 1 m/s along the corridor
    lines = ["# synthetic corridor walkers"]
    for p in range(n_peds):
        x0 = origin_cm[0] + 20.0 + 30.0 * p
        y = origin_cm[1] + 60.0 + 60.0 * p
        for f in range(n_frames):
            lines.append(f"{p + 1} {f} {x0 + f * 6.25:.2f} {y:.2f}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(autouse=True)
def _no_debug_env(monkeypatch):
    # error-path tests expect exit status 1, not the re-raised exception
    monkeypatch.delenv("CROWDSIM_DEBUG", raising=False)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run ingest -> train -> simulate (both models) once, share the outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "walkers.txt"
    _write_raw(raw)
    ing = root / "ingest"
    assert main(["ingest", "--scene", "corridor", "--data", str(raw),
                 "--fps", "16", "--out", str(ing)]) == 0
    tr = root / "train"
    assert main(["train", "--scene", "corridor", "--data", str(ing / "dataset.json"),
                 "--beta", "45", "--alpha", "90", "--iters", "4", "--batch", "16",
                 "--channels", "4,4", "--dropout", "0.0", "--val-every", "2",
                 "--seed", "3", "--out", str(tr)]) == 0
    sim = root / "sim_tcn"
    assert main(["simulate", "--scene", "corridor", "--data", str(ing / "dataset.json"),
                 "--checkpoint", str(tr / "checkpoint.json"), "--model", "tcn",
                 "--max-steps", "300", "--out", str(sim)]) == 0
    sf = root / "sim_sf"
    assert main(["simulate", "--scene", "corridor", "--data", str(ing / "dataset.json"),
                 "--model", "sf", "--max-steps", "300", "--seed", "1",
                 "--out", str(sf)]) == 0
    return {"root": root, "raw": raw, "ingest": ing, "train": tr,
            "sim_tcn": sim, "sim_sf": sf}


def test_ingest_outputs(pipeline):
    ing = pipeline["ingest"]
    doc = json.loads((ing / "dataset.json").read_text())
    manifest = json.loads((ing / "manifest.json").read_text())
    assert doc["format"] == "crowdsim-dataset-v1"
    assert doc["manifest_hash"] == manifest["manifest_hash"]
    assert [r["name"] for r in doc["runs"]] == ["walkers"]
    assert len(doc["runs"][0]["trajectories"]) == 3
    assert doc["dt"] == 0.0625
    assert manifest["warnings"] == []


def test_ingest_rerun_is_byte_identical(pipeline):
    ing = pipeline["ingest"]
    before = (ing / "dataset.json").read_bytes()
    assert main(["ingest", "--scene", "corridor", "--data", str(pipeline["raw"]),
                 "--fps", "16", "--out", str(ing)]) == 0
    assert (ing / "dataset.json").read_bytes() == before


def test_ingest_fps_warning_recorded(pipeline, tmp_path):
    out = tmp_path / "warned"
    assert main(["ingest", "--scene", "corridor", "--data", str(pipeline["raw"]),
                 "--fps", "25", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("fps" in w and "16" in w for w in manifest["warnings"])


def test_ingest_malformed_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 10 20\n1 one 30 40\n")
    code = main(["ingest", "--scene", "corridor", "--data", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_ingest_rejects_a_unit_scale_that_leaves_no_finite_coordinate(pipeline, tmp_path,
                                                                       capsys):
    # A non-finite --unit-scale, or one that scales a coordinate out of the
    # float range, exits 1 naming it instead of writing Infinity or NaN.
    for i, (scale, named) in enumerate((("inf", "unit_scale"), ("nan", "unit_scale"),
                                        ("1e308", "line 2"))):
        out = tmp_path / f"out{i}"
        code = main(["ingest", "--scene", "corridor", "--data", str(pipeline["raw"]),
                     "--fps", "16", "--unit-scale", scale, "--out", str(out)])
        assert code == 1, scale
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, (scale, err)
        assert not (out / "dataset.json").exists()


# lower-left corner of the composite scene's corridor module
COMPOSITE_CORRIDOR_CM = (240.0, 320.0)


def test_ingest_composite_without_module_errors(tmp_path, capsys):
    raw = tmp_path / "stem.txt"
    _write_raw(raw, origin_cm=COMPOSITE_CORRIDOR_CM)
    code = main(["ingest", "--scene", "composite", "--data", str(raw),
                 "--fps", "16", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "several modules define a focus area" in err and "--module" in err


def test_ingest_composite_clips_to_chosen_module(tmp_path):
    raw = tmp_path / "stem.txt"
    _write_raw(raw, origin_cm=COMPOSITE_CORRIDOR_CM)
    out = tmp_path / "out"
    assert main(["ingest", "--scene", "composite", "--data", str(raw), "--fps", "16",
                 "--module", "corridor", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"]["module"] == "corridor"
    doc = json.loads((out / "dataset.json").read_text())
    assert [len(t["positions"]) for t in doc["runs"][0]["trajectories"]] == [40] * 3
    # the bottleneck's focus area holds none of these walkers
    code = main(["ingest", "--scene", "composite", "--data", str(raw), "--fps", "16",
                 "--module", "bottleneck", "--out", str(tmp_path / "empty")])
    assert code == 1


def test_failure_prints_one_error_line_unless_debug_is_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CROWDSIM_DEBUG", "0")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 10 20\n1 one 30 40\n")
    assert main(["ingest", "--scene", "corridor", "--data", str(bad),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_debug_env_var_reraises_with_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CROWDSIM_DEBUG", "1")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 10 20\n1 one 30 40\n")
    with pytest.raises(ValueError, match="line 2"):
        main(["ingest", "--scene", "corridor", "--data", str(bad),
              "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == ""


def test_train_outputs_and_rerun_identical(pipeline):
    tr = pipeline["train"]
    ckpt = json.loads((tr / "checkpoint.json").read_text())
    assert ckpt["format"] == "crowdsim-checkpoint-v1"
    assert ckpt["extraction"]["ray_deg"] == 45.0
    assert ckpt["network"]["input_dim"] == 2 + 4 * 4 + 2 * 8 + 4
    header, rows = read_csv(tr / "loss_history.csv")
    assert header == ["iteration", "train_loss", "val_loss"]
    assert [int(r[0]) for r in rows] == [0, 2, 4]
    assert all(np.isfinite(float(v)) for r in rows for v in r[1:])
    before = (tr / "checkpoint.json").read_bytes()
    assert main(["train", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--beta", "45", "--alpha", "90", "--iters", "4", "--batch", "16",
                 "--channels", "4,4", "--dropout", "0.0", "--val-every", "2",
                 "--seed", "3", "--out", str(tr)]) == 0
    assert (tr / "checkpoint.json").read_bytes() == before


def test_train_seed_changes_checkpoint(pipeline, tmp_path):
    out = tmp_path / "other_seed"
    assert main(["train", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--beta", "45", "--alpha", "90", "--iters", "4", "--batch", "16",
                 "--channels", "4,4", "--dropout", "0.0", "--val-every", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    a = json.loads((pipeline["train"] / "checkpoint.json").read_text())
    b = json.loads((out / "checkpoint.json").read_text())
    assert a["tensors"] != b["tensors"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_nonzero(pipeline, tmp_path, capsys):
    # With one iteration, only the validation loss after it sees the divergence.
    for iters in ("10", "1"):
        code = main(["train", "--scene", "corridor",
                     "--data", str(pipeline["ingest"] / "dataset.json"),
                     "--beta", "45", "--alpha", "90", "--iters", iters, "--batch", "16",
                     "--channels", "4,4", "--dropout", "0.0", "--lr", "1e200",
                     "--out", str(tmp_path / f"div{iters}")])
        assert code == 1, iters
        assert "diverg" in capsys.readouterr().err, iters


def test_train_rejects_a_non_finite_learning_rate(pipeline, tmp_path, capsys):
    code = main(["train", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--beta", "45", "--alpha", "90", "--iters", "1", "--batch", "16",
                 "--channels", "4,4", "--lr", "nan", "--out", str(tmp_path / "nan")])
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "nan").exists()


def test_bad_channels_lists_are_named(pipeline, tmp_path, capsys):
    # A list that does not parse names --channels, in train and in
    # sensitivity; one that parses to a count below 1 names tcn_channels.
    data = str(pipeline["ingest"] / "dataset.json")
    cases = (("0,8", "tcn_channels"), ("8,-2", "tcn_channels"),
             ("", "--channels"), ("8,x", "--channels"))
    for i, (channels, named) in enumerate(cases):
        for command in ("train", "sensitivity"):
            extra = ["--de", "20,100"] if command == "sensitivity" else []
            code = main([command, "--scene", "corridor", "--data", data, *extra,
                         "--beta", "45", "--alpha", "90", "--iters", "1", "--batch", "16",
                         "--channels", channels, "--out", str(tmp_path / f"{command}{i}")])
            assert code == 1, (command, channels)
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err, (command, channels, err)


def test_a_bad_training_setting_leaves_no_output_directory(pipeline, tmp_path, capsys):
    # train and sensitivity build every config before they make --out; in
    # sensitivity the bad setting may sit in the first grid combination or
    # a later one
    data = str(pipeline["ingest"] / "dataset.json")
    cases = ((["train", "--channels", "0,8"], "tcn_channels"),
             (["sensitivity", "--de", "20,100", "--beta", "5", "--channels", "0,8"],
              "tcn_channels"),
             (["sensitivity", "--de", "20,-5", "--beta", "5"], "vision_range"))
    for i, (argv, named) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main([argv[0], "--scene", "corridor", "--data", data, *argv[1:],
                     "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists(), argv


def test_simulate_output_format(pipeline):
    for key, model in (("sim_tcn", "tcn"), ("sim_sf", "sf")):
        path = pipeline[key] / "trajectories.csv"
        text = path.read_text()
        assert text.startswith("# manifest_hash=")
        header, rows = read_csv(path)
        assert header == ["run", "ped_id", "step", "time_s", "x_m", "y_m",
                          "module_id", "reset_flag"]
        assert rows and all(len(r) == 8 for r in rows)
        assert {r[0] for r in rows} == {"walkers"}
        manifest = json.loads((pipeline[key] / "manifest.json").read_text())
        assert manifest["model"] == model


def test_simulate_runs_with_no_live_checkpoint(pipeline, tmp_path, monkeypatch):
    # The decoded checkpoint is dropped once the predictor has copied its
    # tensors: by the time the run starts nothing refers to it.
    loaded, alive = [], []
    load, run = crowdsim.cli.load_checkpoint, crowdsim.cli.run_simulation

    def tracked_load(path):
        ckpt = load(path)
        loaded.append(weakref.ref(ckpt))
        return ckpt

    def checked_run(config, predictor):
        alive.extend(ref() is not None for ref in loaded)
        return run(config, predictor)

    monkeypatch.setattr(crowdsim.cli, "load_checkpoint", tracked_load)
    monkeypatch.setattr(crowdsim.cli, "run_simulation", checked_run)
    out = tmp_path / "tcn"
    assert main(["simulate", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
                 "--model", "tcn", "--max-steps", "300", "--out", str(out)]) == 0
    assert alive == [False]
    assert read_csv(out / "trajectories.csv") == read_csv(pipeline["sim_tcn"] / "trajectories.csv")


def test_flag_defaults_are_the_config_defaults(pipeline):
    params, net, training = ExtractionParams(), NetworkConfig(input_dim=1), TrainingConfig()
    fields = {"beta": "ray_deg", "de": "vision_range", "alpha": "sector_deg",
              "radius": "radius", "window": "window"}
    parser = build_parser()
    ingest = parser.parse_args(["ingest", "--scene", "s", "--data", "f"])
    assert ingest.window == params.window
    train = parser.parse_args(["train", "--scene", "s", "--data", "f"])
    assert {flag: getattr(train, flag) for flag in fields} == \
        {flag: getattr(params, field) for flag, field in fields.items()}
    assert (train.iters, train.batch, train.lr, train.val_every) == \
        (training.iterations, training.batch_size, training.learning_rate,
         training.val_every)
    assert (train.channels, train.dropout) == \
        (",".join(map(str, net.tcn_channels)), net.dropout_rate)
    # simulate has only sf's --window, unset: tcn reads the checkpoint, sf
    # the ExtractionParams defaults
    simulate = parser.parse_args(["simulate", "--scene", "s", "--data", "f"])
    assert simulate.window is None
    assert not any(hasattr(simulate, flag) for flag in fields if flag != "window")
    manifest = json.loads((pipeline["sim_sf"] / "manifest.json").read_text())
    assert manifest["extraction"] == params.to_dict()


def test_simulate_replays_seed_window(pipeline):
    # the first w steps of each pedestrian must reproduce the archive exactly
    doc = json.loads((pipeline["ingest"] / "dataset.json").read_text())
    exp = {t["ped_id"]: np.asarray(t["positions"])
           for t in doc["runs"][0]["trajectories"]}
    _, rows = read_csv(pipeline["sim_tcn"] / "trajectories.csv")
    for pid, positions in exp.items():
        got = np.array([[float(r[4]), float(r[5])] for r in rows
                        if r[1] == pid][:8])
        np.testing.assert_array_equal(got, positions[:8])


def test_simulate_steps_count_from_earliest_track(tmp_path):
    # a's track is shorter than the window, so a seeds nothing; its t0 is
    # still the run's step 0, as in the recorded tracks evaluate reads.
    def walker(ped_id, t0, n, y):
        pos = np.column_stack([0.5 + 0.0625 * np.arange(n), np.full(n, y)])
        vel = np.full_like(pos, np.nan)
        vel[1:] = 1.0, 0.0
        return Trajectory(ped_id=ped_id, t0=t0, dt=0.0625, positions=pos, velocities=vel)

    a, b = walker("a", 0, 5, 0.8), walker("b", 3, 30, 2.0)
    dataset = Dataset(make_corridor(), (Run("r", (a, b)),), "test", 0.0625)
    archive = tmp_path / "dataset.json"
    archive.write_text(json.dumps(dataset_to_dict(dataset, "corridor")))
    assert main(["simulate", "--scene", "corridor", "--data", str(archive),
                 "--model", "sf", "--max-steps", "100", "--out", str(tmp_path / "sf")]) == 0
    _, rows = read_csv(tmp_path / "sf" / "trajectories.csv")
    prefix = [r for r in rows if r[1] == "b"][:8]
    assert [int(r[2]) for r in prefix] == list(range(3, 11))
    np.testing.assert_array_equal([[float(r[4]), float(r[5])] for r in prefix],
                                  b.positions[:8])


def test_simulate_rerun_is_byte_identical(pipeline, tmp_path):
    checkpoint = ["--checkpoint", str(pipeline["train"] / "checkpoint.json")]
    for model, extra in (("tcn", checkpoint), ("sf", ["--seed", "1"])):
        out = tmp_path / model
        outputs = []
        for _ in range(2):
            assert main(["simulate", "--scene", "corridor",
                         "--data", str(pipeline["ingest"] / "dataset.json"),
                         "--model", model, "--max-steps", "300", "--out", str(out),
                         *extra]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("trajectories.csv", "manifest.json")])
        assert outputs[0] == outputs[1]


def test_simulate_sf_with_checkpoint_errors(pipeline, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["simulate", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
                 "--model", "sf", "--out", str(out)])
    assert code == 1
    assert "--checkpoint applies to --model tcn only" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_sections_must_hold_exactly_the_config_fields(pipeline, tmp_path):
    text = (pipeline["train"] / "checkpoint.json").read_text()
    for section, removed, added in (("extraction", "vision_range", "range"),
                                    ("network", "dropout_rate", "bias"),
                                    ("training", "epsilon", "momentum")):
        bad = json.loads(text)
        bad[section][added] = bad[section].pop(removed)
        path = tmp_path / f"{section}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: checkpoint section {section!r} has missing keys "
                f"[{removed!r}] and unknown keys [{added!r}]")):
            load_checkpoint(path)


def test_simulate_without_checkpoint_errors(pipeline, tmp_path, capsys):
    code = main(["simulate", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--model", "tcn", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


def test_simulate_param_mismatch_errors(pipeline, tmp_path, capsys):
    # A TCN run reads D_e, beta, alpha and the radius from its checkpoint, so
    # simulate has no flag that could contradict them: each is unknown to argparse.
    sim = ["simulate", "--scene", "corridor", "--data", str(pipeline["ingest"] / "dataset.json")]
    tcn = [*sim, "--checkpoint", str(pipeline["train"] / "checkpoint.json")]
    out = tmp_path / "x"
    for flag in ("--de", "--beta", "--alpha", "--radius"):
        for args in (tcn, [*sim, "--model", "sf"]):
            with pytest.raises(SystemExit) as exit_:
                main([*args, flag, "10", "--out", str(out)])
            assert exit_.value.code == 2
            assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err
            assert not out.exists()


def test_simulate_nan_flag_mismatches_the_checkpoint(pipeline, tmp_path, capsys):
    # abs(nan - stored) > 1e-9 is False: a NaN once passed a value check and
    # the run went on with the checkpoint's value; now no value is taken at all
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--scene", "corridor",
              "--data", str(pipeline["ingest"] / "dataset.json"),
              "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
              "--de", "nan", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --de nan" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_takes_feature_settings_only_from_the_checkpoint(pipeline, tmp_path, capsys):
    # A TCN run reads D_e, beta, alpha, the radius and the window from its
    # checkpoint; flags could only repeat them or contradict them.  Social
    # force reads only the window, as its seed length.
    sim = ["simulate", "--scene", "corridor", "--data", str(pipeline["ingest"] / "dataset.json")]
    tcn = [*sim, "--checkpoint", str(pipeline["train"] / "checkpoint.json")]
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    help_text = capsys.readouterr().out
    assert "--window" in help_text
    assert not re.search(r"--(de|beta|alpha|radius)\b", help_text)
    out = tmp_path / "tcn"
    assert main([*tcn, "--window", "8", "--out", str(out)]) == 1
    assert "--window applies to --model sf only" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "sf"
    assert main([*sim, "--model", "sf", "--window", "10", "--max-steps", "30",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extraction"] == ExtractionParams(window=10).to_dict()
    doc = json.loads((pipeline["ingest"] / "dataset.json").read_text())
    _, rows = read_csv(out / "trajectories.csv")
    for track in doc["runs"][0]["trajectories"]:            # 10 seeded positions each
        got = [[float(r[4]), float(r[5])] for r in rows if r[1] == track["ped_id"]][:10]
        np.testing.assert_array_equal(got, track["positions"][:10])


def test_simulate_unknown_run_errors(pipeline, tmp_path, capsys):
    code = main(["simulate", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
                 "--run", "nope", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "nope" in capsys.readouterr().err
    # an archive without runs, or with a track without velocities, is an
    # error that names the file, in simulate and in train
    doc = json.loads((pipeline["ingest"] / "dataset.json").read_text())
    no_runs = {k: v for k, v in doc.items() if k != "runs"}
    no_velocities = json.loads(json.dumps(doc))
    del no_velocities["runs"][0]["trajectories"][1]["velocities"]
    for bad, key in ((no_runs, "runs"), (no_velocities, "velocities")):
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps(bad))
        for command in (["simulate", "--model", "sf"], ["train", "--iters", "1"]):
            assert main([command[0], "--scene", "corridor", "--data", str(path), *command[1:],
                         "--out", str(tmp_path / "x")]) == 1
            assert capsys.readouterr().err == f"error: {path}: malformed archive ('{key}')\n"


def test_evaluate_sim_against_archive(pipeline, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--sim", str(pipeline["sim_tcn"] / "trajectories.csv"),
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "metrics.csv")
    assert header == ["run", "model", "ped_id", "ade_m", "fde_m", "tte_s"]
    assert len(rows) == 3
    assert all(np.isfinite(float(v)) for r in rows for v in r[3:])
    sheader, srows = read_csv(out / "metrics_summary.csv")
    assert srows[0][2] == "3"
    mean_ade = np.mean([float(r[3]) for r in rows])
    assert float(srows[0][3]) == pytest.approx(mean_ade, rel=1e-12)


def test_evaluate_identical_inputs_zero_metrics(pipeline, tmp_path):
    out = tmp_path / "self"
    sim_csv = str(pipeline["sim_tcn"] / "trajectories.csv")
    assert main(["evaluate", "--scene", "corridor", "--data", sim_csv,
                 "--sim", sim_csv, "--out", str(out)]) == 0
    _, rows = read_csv(out / "metrics.csv")
    assert rows
    for r in rows:
        assert float(r[3]) == 0.0 and float(r[4]) == 0.0 and float(r[5]) == 0.0


def test_fd_outputs_and_flow_identity(pipeline, tmp_path):
    out = tmp_path / "fd"
    assert main(["fd", "--scene", "corridor",
                 "--data", str(pipeline["sim_sf"] / "trajectories.csv"),
                 "--svg", "--out", str(out)]) == 0
    header, rows = read_csv(out / "fd_corridor.csv")
    assert header == ["time_s", "density", "speed", "flow"]
    assert rows
    for r in rows:
        assert float(r[3]) == float(r[1]) * float(r[2])
    svg = (out / "fd_corridor.svg").read_text()
    assert svg.startswith("<!-- manifest_hash=")
    assert "<svg" in svg and "circle" in svg


def test_fd_without_measurement_area_errors(pipeline, tmp_path, capsys):
    code = main(["fd", "--scene", "corridor",
                 "--data", str(pipeline["sim_sf"] / "trajectories.csv"),
                 "--module", "missing", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "missing" in capsys.readouterr().err


_TRACK_HEADER = "run,ped_id,step,time_s,x_m,y_m,module_id,reset_flag\n"


def test_fd_repeated_step_errors_with_file_and_pedestrian(tmp_path, capsys):
    data = tmp_path / "repeated.csv"
    data.write_text(_TRACK_HEADER + "r,a,0,0.0,1.0,1.0,corridor,0\n"
                    "r,a,0,0.0,1.1,1.0,corridor,0\nr,b,1,0.0625,1.2,1.0,corridor,0\n")
    code = main(["fd", "--scene", "corridor", "--data", str(data),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(data) in err and "pedestrian 'a' has two rows at step 0" in err


def test_fd_short_row_errors_with_file_and_pedestrian(tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text(_TRACK_HEADER + "r,a,0,0.0,1.0,1.0,corridor,0\n"
                    "r,b,0,0.0,1.2\nr,b,1,0.0625,1.3,1.0,corridor,0\n")
    code = main(["fd", "--scene", "corridor", "--data", str(data),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(data) in err and "pedestrian 'b'" in err and "5 fields" in err


def test_sensitivity_grid(pipeline, tmp_path):
    out = tmp_path / "sens"
    assert main(["sensitivity", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--de", "20,100", "--beta", "45,90", "--alpha", "90",
                 "--iters", "2", "--batch", "8", "--channels", "4",
                 "--max-steps", "120", "--out", str(out)]) == 0
    header, rows = read_csv(out / "sensitivity.csv")
    assert header == ["vision_range_m", "ray_deg", "mean_ade_m", "mean_fde_m",
                      "mean_tte_s"]
    assert len(rows) == 4
    assert [(float(r[0]), float(r[1])) for r in rows] == \
        [(20.0, 45.0), (20.0, 90.0), (100.0, 45.0), (100.0, 90.0)]
    assert all(np.isfinite(float(v)) for r in rows for v in r[2:])
    text = (out / "sensitivity.csv").read_text()
    assert "# spread_ade_m=" in text
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"]["dropout"] == 0.0


def test_sensitivity_single_combo_errors(pipeline, tmp_path, capsys):
    code = main(["sensitivity", "--scene", "corridor",
                 "--data", str(pipeline["ingest"] / "dataset.json"),
                 "--de", "20", "--beta", "45", "--alpha", "90",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "at least 2" in capsys.readouterr().err


def test_out_env_var_default(pipeline, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("CROWDSIM_OUT", str(target))
    assert main(["ingest", "--scene", "corridor", "--data", str(pipeline["raw"]),
                 "--fps", "16"]) == 0
    assert (target / "dataset.json").exists()


def test_module_entry_point(pipeline, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "crowdsim.cli", "ingest", "--scene", "corridor",
         "--data", str(pipeline["raw"]), "--fps", "16",
         "--out", str(tmp_path / "subproc")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "subproc" / "dataset.json").exists()


def test_unknown_scene_errors(pipeline, tmp_path, capsys):
    code = main(["fd", "--scene", str(tmp_path / "absent.json"),
                 "--data", str(pipeline["sim_sf"] / "trajectories.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")

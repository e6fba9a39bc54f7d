"""Command-line pipeline: ingest, train, simulate, evaluate, fd, sensitivity.

Every command writes a manifest.json into the output directory and embeds
the manifest hash in each file it produces; rerunning a command with the
same manifest yields byte-identical outputs.  All randomness derives from
the --seed flag through named sub-streams.  The default output directory
can be set with the CROWDSIM_OUT environment variable; CROWDSIM_DEBUG=1
re-raises a failing command's exception instead of printing "error: ...".

Flag defaults are read from the config dataclasses: the extraction flags of
EXTRACTION_FLAGS from ExtractionParams, the training flags from
NetworkConfig and TrainingConfig.  `sensitivity` trains with its own
smaller protocol.  Of the extraction flags `simulate` has only `--window`,
for social force: a TCN run reads them all from its checkpoint.  `train`
and `sensitivity` share one training stage, `simulate` and `sensitivity`
one simulation stage.  Archives are read by `ingest.load_dataset`, and a
recorded run's tracks, for seeds and metrics alike, come from
`ingest.Run.tracks`, which counts steps from the run's earliest track.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from .features import ExtractionParams
from .ingest import (Dataset, clip_to_focus, dataset_to_dict, load_dataset,
                     parse_trajectories, Run, SampleSet, build_samples)
from .io import (RunManifest, derive_seed, load_checkpoint, read_csv,
                 save_checkpoint, substream, write_csv, write_json)
from .metrics import (Track, evaluate_run, fundamental_diagram,
                      parameter_sensitivity)
from .network import NetworkConfig, TrainingConfig, VelocityPredictor, train
from .scene_library import resolve_scene
from .simulate import TRAJECTORY_HEADER, SimulationConfig, run_simulation, seeds_from_run
from .social_force import SFParams, sf_run

OUT_ENV_VAR = "CROWDSIM_OUT"
# usual camera rates of the source recordings, by leading module kind
EXPECTED_FPS = {"bottleneck": 25.0, "t_junction": 25.0,
                "corridor": 16.0, "corner": 16.0}
# flag -> (ExtractionParams field, help, default grid of `sensitivity`).  The
# type and default come from the field.  `sensitivity` crosses the flags that
# have a grid, in this order: its rows are (D_e, beta).
EXTRACTION_FLAGS = {
    "de": ("vision_range", "vision range D_e, metres", "20,100"),
    "beta": ("ray_deg", "vision ray spacing, degrees", "5,10,15,18"),
    "alpha": ("sector_deg", "social sector width, degrees", None),
    "radius": ("radius", "social perception radius, metres", None),
    "window": ("window", "lookback window, steps", None),
}


def _out_and_manifest(args, data, **fields) -> tuple[Path, RunManifest]:
    """A command's output directory, made by its first write, and its run manifest."""
    out = Path(args.out if args.out is not None
               else os.environ.get(OUT_ENV_VAR, "."))
    return out, RunManifest(command=args.command, scene=args.scene, data=tuple(data),
                            seed=args.seed, out=str(out), **fields)


def _extraction(args, **values) -> ExtractionParams:
    """Params from the extraction flags, with ``values`` (by flag) taking precedence."""
    values = {flag: getattr(args, flag) for flag in EXTRACTION_FLAGS} | values
    return ExtractionParams(**{EXTRACTION_FLAGS[flag][0]: v for flag, v in values.items()})


def _train_configs(args, params: ExtractionParams, val_every: int,
                   tag: str = "") -> tuple[NetworkConfig, TrainingConfig]:
    """Network and training configs from the training flags."""
    try:
        channels = tuple(int(c) for c in args.channels.split(","))
    except ValueError:
        raise ValueError(f"--channels expects a comma-separated list of integers, "
                         f"got {args.channels!r}") from None
    net_cfg = NetworkConfig(input_dim=params.feature_dim, window=params.window,
                            tcn_channels=channels,
                            dilations=tuple(2 ** i for i in range(len(channels))),
                            dropout_rate=args.dropout)
    train_cfg = TrainingConfig(learning_rate=args.lr, iterations=args.iters,
                               batch_size=args.batch, val_every=val_every,
                               seed=derive_seed(args.seed, f"train{tag}"))
    return net_cfg, train_cfg


def _load_run(path, run_name, scene) -> tuple[Run, float]:
    """One run of the archive at path, and the archive's dt."""
    dataset = load_dataset(path, scene)
    runs = {run.name: run for run in dataset.runs}
    if run_name is None:
        if len(runs) != 1:
            raise ValueError(f"{path}: archive holds {len(runs)} runs, pick one with --run")
        run_name = next(iter(runs))
    if run_name not in runs:
        raise ValueError(f"{path}: no run named {run_name!r} (available: {sorted(runs)})")
    return runs[run_name], dataset.dt


def _tracks_from_csv(path) -> list[Track]:
    header, rows = read_csv(path)
    need = ["ped_id", "step", "time_s", "x_m", "y_m"]
    idx = {}
    for name in need:
        if name not in header:
            raise ValueError(f"{path}: missing column {name!r}")
        idx[name] = header.index(name)
    by_ped: dict[str, list[tuple[int, float, float, float]]] = {}
    seen = set()
    for row in rows:
        pid = row[idx["ped_id"]] if idx["ped_id"] < len(row) else "?"
        if len(row) != len(header):
            raise ValueError(f"{path}: pedestrian {pid!r}: a row of {len(row)} fields "
                             f"under a header of {len(header)}")
        step = int(row[idx["step"]])
        if (pid, step) in seen:
            raise ValueError(f"{path}: pedestrian {pid!r} has two rows at step {step}")
        seen.add((pid, step))
        by_ped.setdefault(pid, []).append(
            (step, float(row[idx["time_s"]]), float(row[idx["x_m"]]), float(row[idx["y_m"]])))
    dt = None
    for recs in by_ped.values():
        if len(recs) >= 2:
            dt = (recs[1][1] - recs[0][1]) / (recs[1][0] - recs[0][0])
            break
    if dt is None:
        raise ValueError(f"{path}: no pedestrian has two rows; cannot infer dt")
    tracks = []
    for pid in sorted(by_ped):
        recs = sorted(by_ped[pid])
        steps = np.array([r[0] for r in recs], dtype=int)
        pos = np.array([[r[2], r[3]] for r in recs])
        tracks.append(Track(ped_id=pid, steps=steps, positions=pos, dt=dt))
    return tracks


def _load_tracks(path, run_name, scene) -> list[Track]:
    """Tracks of a trajectories CSV, or of one run of an archive (`Run.tracks`)."""
    if str(path).endswith(".json"):
        run, dt = _load_run(path, run_name, scene)
        return run.tracks(dt)
    return _tracks_from_csv(path)


def _module(scene, module_id: str):
    """The module of a --module id; an unknown id is an error listing the known ones."""
    if module_id not in (ids := [m.id for m in scene.modules]):
        raise ValueError(f"unknown module id {module_id!r} (available: {ids})")
    return scene.module(module_id)


def _focus_area(scene, module_flag):
    if module_flag is not None:
        return _module(scene, module_flag).focus_area
    areas = [(m.id, m.focus_area) for m in scene.modules if m.focus_area is not None]
    if not areas:
        return None
    if len(areas) > 1:
        raise ValueError(f"several modules define a focus area "
                         f"({[a[0] for a in areas]}); pick one with --module")
    return areas[0][1]


def cmd_ingest(args) -> int:
    out, manifest = _out_and_manifest(
        args, args.data, options={"fps": args.fps, "unit_scale": args.unit_scale,
                                  "role": args.role, "window": args.window,
                                  "module": args.module})
    scene = resolve_scene(args.scene)
    expected = EXPECTED_FPS.get(scene.modules[0].kind)
    if expected is not None and abs(args.fps - expected) > 1e-9:
        manifest.warnings.append(
            f"fps {args.fps} differs from the usual {expected} for "
            f"{scene.modules[0].kind} recordings")
    focus = _focus_area(scene, args.module)
    runs = []
    for path in args.data:
        trajs = parse_trajectories(path, unit_scale=args.unit_scale, fps=args.fps)
        if focus is not None:
            trajs = clip_to_focus(trajs, focus, window=args.window)
        if not trajs:
            manifest.warnings.append(f"{path}: no usable trajectories after clipping")
            continue
        runs.append(Run(name=Path(path).stem, trajectories=tuple(trajs)))
    if not runs:
        raise ValueError("no usable trajectories in any input file")
    dataset = Dataset(scene=scene, runs=tuple(runs), role=args.role, dt=1.0 / args.fps)
    mhash = manifest.hash()
    write_json(out / "dataset.json", dataset_to_dict(dataset, scene_ref=args.scene), mhash)
    manifest.save(out / "manifest.json")
    print(f"ingested {len(runs)} runs -> {out / 'dataset.json'}")
    return 0


def _train_stage(datasets, params: ExtractionParams, net_cfg: NetworkConfig,
                 train_cfg: TrainingConfig, seed: int, tag: str = ""):
    """Samples of every run, the 4:1 split and the trained predictor.

    Returns the predictor, the TrainResult and the training-sample count.
    """
    samples = SampleSet.concatenate([build_samples(dataset, params) for dataset in datasets])
    if not len(samples):
        raise ValueError("no training samples could be built from the archives")
    # Both splits index the samples' one feature array; a batch is gathered
    # from it when train or batch_loss takes one.
    x_tr, y_tr, x_va, y_va = samples.split(ratio=4, seed=derive_seed(seed, "split"))
    net = VelocityPredictor(net_cfg, rng=substream(seed, f"init{tag}"))
    return net, train(net, x_tr, y_tr, x_va, y_va, train_cfg), len(x_tr)


def cmd_train(args) -> int:
    params = _extraction(args)
    net_cfg, train_cfg = _train_configs(args, params, args.val_every)
    out, manifest = _out_and_manifest(args, args.data, model="tcn",
                                      extraction=params.to_dict(),
                                      network=net_cfg.to_dict(),
                                      training=train_cfg.to_dict())
    scene = resolve_scene(args.scene)
    mhash = manifest.hash()
    datasets = [load_dataset(p, scene) for p in args.data]
    _, result, n_train = _train_stage(datasets, params, net_cfg, train_cfg, args.seed)
    save_checkpoint(out / "checkpoint.json", result.state, net_cfg, params,
                    mhash, training=train_cfg)
    write_csv(out / "loss_history.csv",
              ["iteration", "train_loss", "val_loss"], result.history, mhash)
    manifest.save(out / "manifest.json")
    print(f"trained {train_cfg.iterations} iterations on {n_train} samples "
          f"(best val {result.best_val_loss:.6f} at {result.best_iteration}) "
          f"-> {out / 'checkpoint.json'}")
    return 0


def _simulate_stage(scene, dt: float, tracks, params: ExtractionParams, max_steps: int,
                    net=None, seed: int = 0):
    """Closed-loop run seeded from a run's `Run.tracks`: the TCN ``net``, or
    social force when it is None.  None when no track fills a window."""
    seeds = seeds_from_run(tracks, window=params.window)
    if not seeds:
        return None
    config = SimulationConfig(scene=scene, dt=dt, pedestrians=tuple(seeds),
                              params=params, max_steps=max_steps)
    if net is None:
        return sf_run(config, SFParams(), rng=substream(seed, "sf-speeds"))
    return run_simulation(config, net.freeze())


def cmd_simulate(args) -> int:
    scene = resolve_scene(args.scene)
    run, dt = _load_run(args.data, args.run, scene)

    net = None
    if args.model == "tcn":
        if args.checkpoint is None:
            raise ValueError("model tcn needs --checkpoint")
        if args.window is not None:
            raise ValueError("--window applies to --model sf only; "
                             "model tcn reads it from the checkpoint")
        ckpt = load_checkpoint(args.checkpoint)
        params = ckpt.extraction
        net = VelocityPredictor(ckpt.network)
        net.load_state_dict(ckpt.state)
        del ckpt        # the run holds the copied parameters, not the decoded tensors
    elif args.checkpoint is not None:
        raise ValueError("--checkpoint applies to --model tcn only")
    else:
        params = ExtractionParams() if args.window is None else ExtractionParams(window=args.window)

    out, manifest = _out_and_manifest(args, [args.data], model=args.model,
                                      extraction=params.to_dict(),
                                      options={"run": run.name,
                                               "checkpoint": args.checkpoint,
                                               "max_steps": args.max_steps})
    mhash = manifest.hash()
    result = _simulate_stage(scene, dt, run.tracks(dt), params, args.max_steps, net, args.seed)
    if result is None:
        raise ValueError(f"run {run.name!r}: no trajectory is long enough "
                         f"to seed a {params.window}-step window")
    write_csv(out / "trajectories.csv", TRAJECTORY_HEADER, result.to_rows(run.name), mhash)
    manifest.save(out / "manifest.json")
    exited = sum(t.exited for t in result.trajectories)
    print(f"simulated {len(result.trajectories)} pedestrians "
          f"({exited} exited{', truncated' if result.truncated else ''}) "
          f"-> {out / 'trajectories.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    out, manifest = _out_and_manifest(args, [args.data, args.sim], model=args.model,
                                      options={"run": args.run, "module": args.module})
    scene = resolve_scene(args.scene)
    mhash = manifest.hash()
    sim_tracks = _load_tracks(args.sim, args.run, scene)
    exp_tracks = _load_tracks(args.data, args.run, scene)
    focus = _focus_area(scene, args.module)
    run_name = args.run if args.run is not None else "run"
    report = evaluate_run(sim_tracks, exp_tracks, run=run_name,
                          model=args.model, focus_area=focus)
    write_csv(out / "metrics.csv",
              ["run", "model", "ped_id", "ade_m", "fde_m", "tte_s"],
              report.to_rows(), mhash)
    write_csv(out / "metrics_summary.csv",
              ["run", "model", "n_peds", "mean_ade_m", "mean_fde_m", "mean_tte_s"],
              [[report.run, report.model, len(report.ped_ids),
                report.mean_ade, report.mean_fde, report.mean_tte]], mhash)
    manifest.save(out / "manifest.json")
    print(f"evaluated {len(report.ped_ids)} pedestrians: "
          f"ADE {report.mean_ade:.4f} m, FDE {report.mean_fde:.4f} m, "
          f"TTE {report.mean_tte:.4f} s -> {out / 'metrics.csv'}")
    return 0


def _fd_svg(points) -> str:
    """Density-speed scatter, fixed 480x360 canvas, no external assets."""
    w, h, margin = 480, 360, 40
    dmax = max((p.density for p in points), default=1.0) * 1.1 or 1.0
    smax = max((p.speed for p in points), default=1.0) * 1.1 or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" '
             f'y2="{h - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{h - margin}" stroke="black"/>',
             f'<text x="{w // 2}" y="{h - 8}" font-size="12" '
             f'text-anchor="middle">density (1/m^2)</text>',
             f'<text x="12" y="{h // 2}" font-size="12" text-anchor="middle" '
             f'transform="rotate(-90 12 {h // 2})">speed (m/s)</text>']
    for p in points:
        x = margin + (p.density / dmax) * (w - 2 * margin)
        y = h - margin - (p.speed / smax) * (h - 2 * margin)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                     f'fill="steelblue" fill-opacity="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_fd(args) -> int:
    out, manifest = _out_and_manifest(args, [args.data],
                                      options={"module": args.module,
                                               "svg": bool(args.svg), "run": args.run})
    scene = resolve_scene(args.scene)
    mhash = manifest.hash()
    tracks = _load_tracks(args.data, args.run, scene)
    if not tracks:
        raise ValueError(f"{args.data}: no trajectories")
    dt = tracks[0].dt
    if args.module:
        modules = [_module(scene, m) for m in args.module]
    else:
        modules = [m for m in scene.modules if m.measurement_area is not None]
    if not modules:
        raise ValueError("no module defines a measurement area; pass --module")
    written = []
    for mod in modules:
        if mod.measurement_area is None:
            raise ValueError(f"module {mod.id!r} has no measurement area")
        points = fundamental_diagram(tracks, mod.measurement_area, dt)
        path = out / f"fd_{mod.id}.csv"
        write_csv(path, ["time_s", "density", "speed", "flow"],
                  [[p.time, p.density, p.speed, p.flow] for p in points], mhash)
        written.append(str(path))
        if args.svg:
            svg_path = out / f"fd_{mod.id}.svg"
            with open(svg_path, "w") as fh:
                fh.write(f"<!-- manifest_hash={mhash} -->\n")
                fh.write(_fd_svg(points))
            written.append(str(svg_path))
    manifest.save(out / "manifest.json")
    print(f"fundamental diagrams for {len(modules)} modules -> {', '.join(written)}")
    return 0


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--{flag} expects a comma-separated list of numbers, "
                         f"got {text!r}") from None
    if not values:
        raise ValueError(f"--{flag} is empty")
    return values


def cmd_sensitivity(args) -> int:
    scene = resolve_scene(args.scene)
    grids = {flag: _parse_grid(getattr(args, flag), flag)
             for flag, (_, _, grid) in EXTRACTION_FLAGS.items() if grid is not None}
    combos = list(itertools.product(*grids.values()))
    if len(combos) < 2:
        raise ValueError("sensitivity analysis needs at least 2 parameter combinations")
    # every combination's configs, so a bad setting fails before the output
    # directory is made; seeds derive from sub-stream names such as train-de20-beta5
    stages = []
    for combo in combos:
        values = dict(zip(grids, combo))
        tag = "-" + "-".join(f"{flag}{v:g}" for flag, v in values.items())
        params = _extraction(args, **values)
        stages.append((combo, tag, params,
                       *_train_configs(args, params, max(1, args.iters // 2), tag)))
    out, manifest = _out_and_manifest(
        args, args.data, model="tcn",
        options={**{flag: grids.get(flag, getattr(args, flag)) for flag in EXTRACTION_FLAGS},
                 "iters": args.iters, "batch": args.batch, "lr": args.lr,
                 "channels": args.channels, "dropout": args.dropout,
                 "max_steps": args.max_steps})
    mhash = manifest.hash()
    datasets = [load_dataset(p, scene) for p in args.data]
    reports = []
    for combo, tag, params, net_cfg, train_cfg in stages:
        net, _, _ = _train_stage(datasets, params, net_cfg, train_cfg, args.seed, tag)
        for dataset in datasets:
            for run in dataset.runs:
                tracks = run.tracks(dataset.dt)
                result = _simulate_stage(scene, dataset.dt, tracks, params, args.max_steps, net)
                if result is None:
                    continue
                report = evaluate_run(result.trajectories, tracks,
                                      run=run.name, model="tcn", focus_area=None)
                reports.append((combo, report))
    summary = parameter_sensitivity(reports)
    write_csv(out / "sensitivity.csv",
              ["vision_range_m", "ray_deg", "mean_ade_m", "mean_fde_m", "mean_tte_s"],
              [list(row) for row in summary.rows], mhash,
              trailer=[f"spread_ade_m={summary.spread_ade!r}",
                       f"spread_fde_m={summary.spread_fde!r}",
                       f"spread_tte_s={summary.spread_tte!r}"])
    manifest.save(out / "manifest.json")
    print(f"sensitivity over {len(summary.rows)} combinations "
          f"(ADE spread {summary.spread_ade:.4f} m) -> {out / 'sensitivity.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdsim",
        description="data-driven crowd simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True,
                       help="scene JSON path or builtin name (corridor, bottleneck, "
                            "corner, t_junction, composite)")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} or .)")

    def extraction(p, flags=tuple(EXTRACTION_FLAGS), grids=False):
        for flag in flags:
            field, text, grid = EXTRACTION_FLAGS[flag]
            default = getattr(ExtractionParams, field)
            if grids and grid is not None:
                p.add_argument(f"--{flag}", default=grid, help=f"comma list: {text}")
            else:
                p.add_argument(f"--{flag}", type=type(default), default=default, help=text)

    def training(p, iters=TrainingConfig.iterations, batch=TrainingConfig.batch_size,
                 channels=NetworkConfig.tcn_channels, dropout=NetworkConfig.dropout_rate):
        p.add_argument("--iters", type=int, default=iters, help="Adam iterations")
        p.add_argument("--batch", type=int, default=batch, help="minibatch size")
        p.add_argument("--lr", type=float, default=TrainingConfig.learning_rate,
                       help="learning rate")
        p.add_argument("--channels", default=",".join(map(str, channels)),
                       help="TCN channels per block")
        p.add_argument("--dropout", type=float, default=dropout, help="dropout rate")

    p = sub.add_parser("ingest", help="normalise raw trajectory files into an archive")
    common(p)
    p.add_argument("--data", nargs="+", required=True, help="raw trajectory files")
    p.add_argument("--fps", type=float, default=25.0, help="recording frame rate")
    p.add_argument("--unit-scale", type=float, default=0.01, dest="unit_scale",
                   help="factor converting input units to metres")
    p.add_argument("--role", choices=["train_val", "test"], default="train_val")
    extraction(p, flags=("window",))
    p.add_argument("--module", default=None, help="module whose focus area to clip to")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the velocity predictor on archives")
    common(p)
    p.add_argument("--data", nargs="+", required=True, help="dataset archives")
    extraction(p)
    training(p)
    p.add_argument("--val-every", type=int, default=TrainingConfig.val_every,
                   dest="val_every")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="closed-loop simulation seeded from a run")
    common(p)
    p.add_argument("--data", required=True, help="dataset archive providing seeds")
    p.add_argument("--model", choices=["tcn", "sf"], default="tcn")
    p.add_argument("--checkpoint", default=None, help="trained checkpoint (model tcn)")
    p.add_argument("--run", default=None, help="run name inside the archive")
    p.add_argument("--max-steps", type=int, default=2000, dest="max_steps")
    p.add_argument("--window", type=int, default=None, help="seed length, steps (model sf "
                   f"only; default {ExtractionParams.window}, tcn reads the checkpoint's)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="ADE/FDE/TTE of simulated vs experimental")
    common(p)
    p.add_argument("--data", required=True, help="experimental archive or CSV")
    p.add_argument("--sim", required=True, help="simulated trajectory CSV")
    p.add_argument("--model", default="tcn", help="label recorded in the report")
    p.add_argument("--run", default=None, help="run name inside the archive")
    p.add_argument("--module", default=None, help="module whose focus area to use")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fd", help="fundamental diagrams over measurement areas")
    common(p)
    p.add_argument("--data", required=True, help="trajectory CSV or archive")
    p.add_argument("--run", default=None, help="run name inside an archive")
    p.add_argument("--module", nargs="*", default=None,
                   help="module ids (default: all with measurement areas)")
    p.add_argument("--svg", action="store_true", help="also emit scatter SVGs")
    p.set_defaults(func=cmd_fd)

    p = sub.add_parser("sensitivity", help="metric spread over a D_e x beta grid")
    common(p)
    p.add_argument("--data", nargs="+", required=True, help="dataset archives")
    extraction(p, grids=True)
    training(p, iters=200, batch=64, channels=(8, 8), dropout=0.0)
    p.add_argument("--max-steps", type=int, default=2000, dest="max_steps")
    p.set_defaults(func=cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if os.environ.get("CROWDSIM_DEBUG") == "1":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

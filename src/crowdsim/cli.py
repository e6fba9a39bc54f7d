"""Command-line pipeline: ingest, train, simulate, evaluate, fd, sensitivity.

Every command writes a manifest.json into the output directory and embeds
the manifest hash in each file it produces; rerunning a command with the
same manifest yields byte-identical outputs.  All randomness derives from
the --seed flag through named sub-streams.  The default output directory
can be set with the CROWDSIM_OUT environment variable; CROWDSIM_DEBUG=1
re-raises a failing command's exception instead of printing "error: ...".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .features import ExtractionParams
from .ingest import (Dataset, clip_to_focus, dataset_from_dict, dataset_to_dict,
                     parse_trajectories, Run, build_samples, samples_to_arrays,
                     split_train_val, trajectory_from_dict)
from .io import (RunManifest, derive_seed, load_checkpoint, read_csv,
                 save_checkpoint, substream, write_csv, write_json)
from .metrics import (Track, evaluate_run, fundamental_diagram,
                      parameter_sensitivity)
from .network import NetworkConfig, TrainingConfig, VelocityPredictor, train
from .scene_library import resolve_scene
from .simulate import SimulationConfig, run_simulation, seeds_from_run
from .social_force import SFParams, sf_run

OUT_ENV_VAR = "CROWDSIM_OUT"
TRAJECTORY_HEADER = ["run", "ped_id", "step", "time_s", "x_m", "y_m",
                     "module_id", "reset_flag"]
# usual camera rates of the source recordings, by leading module kind
EXPECTED_FPS = {"bottleneck": 25.0, "t_junction": 25.0,
                "corridor": 16.0, "corner": 16.0}


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None
               else os.environ.get(OUT_ENV_VAR, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _extraction_from_args(args) -> ExtractionParams:
    return ExtractionParams(radius=args.radius, sector_deg=args.alpha,
                            ray_deg=args.beta, vision_range=args.de,
                            window=args.window)


def _net_config(params: ExtractionParams, channels_flag: str,
                dropout: float) -> NetworkConfig:
    channels = tuple(int(c) for c in channels_flag.split(","))
    dilations = tuple(2 ** i for i in range(len(channels)))
    return NetworkConfig(input_dim=params.feature_dim, window=params.window,
                         tcn_channels=channels, dilations=dilations,
                         dropout_rate=dropout)


def _load_archive(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "crowdsim-dataset-v1":
        raise ValueError(f"{path}: not a crowdsim-dataset-v1 archive")
    return doc


def _select_run(doc: dict, run_name, path) -> dict:
    runs = {r["name"]: r for r in doc["runs"]}
    if run_name is not None:
        if run_name not in runs:
            raise ValueError(f"{path}: no run named {run_name!r} "
                             f"(available: {sorted(runs)})")
        return runs[run_name]
    if len(runs) != 1:
        raise ValueError(f"{path}: archive holds {len(runs)} runs, pick one with --run")
    return next(iter(runs.values()))


def _tracks_from_run(run_doc: dict, dt: float) -> list[Track]:
    """Tracks with steps normalised so the earliest trajectory starts at 0.

    This matches the simulator's seeding convention, so simulated and
    experimental steps align by index.
    """
    trajs = [trajectory_from_dict(t) for t in run_doc["trajectories"]]
    if not trajs:
        raise ValueError(f"run {run_doc.get('name')!r} has no trajectories")
    origin = min(t.t0 for t in trajs)
    return [Track(ped_id=t.ped_id, steps=t.t0 - origin + np.arange(len(t.positions)),
                  positions=t.positions, dt=dt) for t in trajs]


def _tracks_from_csv(path) -> list[Track]:
    header, rows = read_csv(path)
    need = ["ped_id", "step", "time_s", "x_m", "y_m"]
    idx = {}
    for name in need:
        if name not in header:
            raise ValueError(f"{path}: missing column {name!r}")
        idx[name] = header.index(name)
    by_ped: dict[str, list[tuple[int, float, float, float]]] = {}
    for row in rows:
        by_ped.setdefault(row[idx["ped_id"]], []).append(
            (int(row[idx["step"]]), float(row[idx["time_s"]]),
             float(row[idx["x_m"]]), float(row[idx["y_m"]])))
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


def _load_tracks(path, run_name=None) -> list[Track]:
    path = str(path)
    if path.endswith(".json"):
        doc = _load_archive(path)
        return _tracks_from_run(_select_run(doc, run_name, path), float(doc["dt"]))
    return _tracks_from_csv(path)


def _focus_area(scene, module_flag):
    if module_flag is not None:
        return scene.module(module_flag).focus_area
    areas = [(m.id, m.focus_area) for m in scene.modules if m.focus_area is not None]
    if not areas:
        return None
    if len(areas) > 1:
        raise ValueError(f"several modules define a focus area "
                         f"({[a[0] for a in areas]}); pick one with --module")
    return areas[0][1]


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    scene = resolve_scene(args.scene)
    manifest = RunManifest(command="ingest", scene=args.scene,
                           data=tuple(args.data), seed=args.seed, out=str(out),
                           options={"fps": args.fps, "unit_scale": args.unit_scale,
                                    "role": args.role, "window": args.window,
                                    "module": args.module})
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


def _build_training_arrays(archives, scene, params, seed):
    samples = []
    for path in archives:
        doc = _load_archive(path)
        dataset = dataset_from_dict(doc, scene)
        samples.extend(build_samples(dataset, params))
    if not samples:
        raise ValueError("no training samples could be built from the archives")
    tr, va = split_train_val(samples, ratio=4, seed=derive_seed(seed, "split"))
    x_tr, y_tr = samples_to_arrays(tr)
    x_va, y_va = samples_to_arrays(va)
    return x_tr, y_tr, x_va, y_va


def cmd_train(args) -> int:
    out = _out_dir(args)
    scene = resolve_scene(args.scene)
    params = _extraction_from_args(args)
    net_cfg = _net_config(params, args.channels, args.dropout)
    train_cfg = TrainingConfig(learning_rate=args.lr, iterations=args.iters,
                               batch_size=args.batch, val_every=args.val_every,
                               seed=derive_seed(args.seed, "train"))
    manifest = RunManifest(command="train", scene=args.scene, data=tuple(args.data),
                           seed=args.seed, out=str(out), model="tcn",
                           extraction=params.to_dict(), network=net_cfg.to_dict(),
                           training=train_cfg.to_dict())
    mhash = manifest.hash()
    x_tr, y_tr, x_va, y_va = _build_training_arrays(args.data, scene, params, args.seed)
    net = VelocityPredictor(net_cfg, rng=substream(args.seed, "init"))
    result = train(net, x_tr, y_tr, x_va, y_va, train_cfg)
    save_checkpoint(out / "checkpoint.json", result.state, net_cfg, params,
                    mhash, training=train_cfg)
    write_csv(out / "loss_history.csv",
              ["iteration", "train_loss", "val_loss"], result.history, mhash)
    manifest.save(out / "manifest.json")
    print(f"trained {train_cfg.iterations} iterations on {x_tr.shape[0]} samples "
          f"(best val {result.best_val_loss:.6f} at {result.best_iteration}) "
          f"-> {out / 'checkpoint.json'}")
    return 0


def _check_flag(name, flag_value, stored, what) -> None:
    if flag_value is not None and abs(flag_value - stored) > 1e-9:
        raise ValueError(f"{what} mismatch: --{name} {flag_value} but the "
                         f"checkpoint was trained with {stored}")


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    scene = resolve_scene(args.scene)
    doc = _load_archive(args.data)
    run_doc = _select_run(doc, args.run, args.data)
    dt = float(doc["dt"])
    trajs = [trajectory_from_dict(t) for t in run_doc["trajectories"]]

    if args.model == "tcn":
        if args.checkpoint is None:
            raise ValueError("model tcn needs --checkpoint")
        ckpt = load_checkpoint(args.checkpoint)
        _check_flag("beta", args.beta, ckpt.extraction.ray_deg, "vision ray spacing")
        _check_flag("de", args.de, ckpt.extraction.vision_range, "vision range")
        _check_flag("alpha", args.alpha, ckpt.extraction.sector_deg, "sector width")
        _check_flag("radius", args.radius, ckpt.extraction.radius, "perception radius")
        _check_flag("window", args.window, ckpt.extraction.window, "window length")
        params = ckpt.extraction
        net = VelocityPredictor(ckpt.network)
        net.load_state_dict(ckpt.state)
    else:
        params = ExtractionParams(
            radius=args.radius if args.radius is not None else 1.2,
            sector_deg=args.alpha if args.alpha is not None else 18.0,
            ray_deg=args.beta if args.beta is not None else 10.0,
            vision_range=args.de if args.de is not None else 20.0,
            window=args.window if args.window is not None else 8)
        net = None

    manifest = RunManifest(command="simulate", scene=args.scene,
                           data=(args.data,), seed=args.seed, out=str(out),
                           model=args.model, extraction=params.to_dict(),
                           options={"run": run_doc["name"],
                                    "checkpoint": args.checkpoint,
                                    "max_steps": args.max_steps})
    mhash = manifest.hash()
    seeds = seeds_from_run(trajs, window=params.window)
    if not seeds:
        raise ValueError(f"run {run_doc['name']!r}: no trajectory is long enough "
                         f"to seed a {params.window}-step window")
    config = SimulationConfig(scene=scene, dt=dt, pedestrians=tuple(seeds),
                              params=params, max_steps=args.max_steps)
    if args.model == "tcn":
        result = run_simulation(config, net)
    else:
        result = sf_run(config, SFParams(), rng=substream(args.seed, "sf-speeds"))
    write_csv(out / "trajectories.csv", TRAJECTORY_HEADER,
              result.to_rows(run_doc["name"]), mhash)
    manifest.save(out / "manifest.json")
    exited = sum(t.exited for t in result.trajectories)
    print(f"simulated {len(result.trajectories)} pedestrians "
          f"({exited} exited{', truncated' if result.truncated else ''}) "
          f"-> {out / 'trajectories.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    scene = resolve_scene(args.scene)
    manifest = RunManifest(command="evaluate", scene=args.scene,
                           data=(args.data, args.sim), seed=args.seed,
                           out=str(out), model=args.model,
                           options={"run": args.run, "module": args.module})
    mhash = manifest.hash()
    sim_tracks = _load_tracks(args.sim, args.run)
    exp_tracks = _load_tracks(args.data, args.run)
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
    out = _out_dir(args)
    scene = resolve_scene(args.scene)
    manifest = RunManifest(command="fd", scene=args.scene, data=(args.data,),
                           seed=args.seed, out=str(out),
                           options={"module": args.module, "svg": bool(args.svg),
                                    "run": args.run})
    mhash = manifest.hash()
    tracks = _load_tracks(args.data, args.run)
    if not tracks:
        raise ValueError(f"{args.data}: no trajectories")
    dt = tracks[0].dt
    if args.module:
        modules = [scene.module(m) for m in args.module]
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
    out = _out_dir(args)
    scene = resolve_scene(args.scene)
    de_grid = _parse_grid(args.de, "de")
    beta_grid = _parse_grid(args.beta, "beta")
    combos = [(de, beta) for de in de_grid for beta in beta_grid]
    if len(combos) < 2:
        raise ValueError("sensitivity analysis needs at least 2 parameter combinations")
    manifest = RunManifest(command="sensitivity", scene=args.scene,
                           data=tuple(args.data), seed=args.seed, out=str(out),
                           model="tcn",
                           options={"de": de_grid, "beta": beta_grid,
                                    "alpha": args.alpha, "radius": args.radius,
                                    "window": args.window, "iters": args.iters,
                                    "batch": args.batch, "lr": args.lr,
                                    "channels": args.channels,
                                    "max_steps": args.max_steps})
    mhash = manifest.hash()
    reports = []
    for de, beta in combos:
        tag = f"de{de:g}-beta{beta:g}"
        params = ExtractionParams(radius=args.radius, sector_deg=args.alpha,
                                  ray_deg=beta, vision_range=de, window=args.window)
        x_tr, y_tr, x_va, y_va = _build_training_arrays(args.data, scene,
                                                        params, args.seed)
        net_cfg = _net_config(params, args.channels, args.dropout)
        train_cfg = TrainingConfig(learning_rate=args.lr, iterations=args.iters,
                                   batch_size=args.batch,
                                   val_every=max(1, args.iters // 2),
                                   seed=derive_seed(args.seed, f"train-{tag}"))
        net = VelocityPredictor(net_cfg, rng=substream(args.seed, f"init-{tag}"))
        train(net, x_tr, y_tr, x_va, y_va, train_cfg)
        for path in args.data:
            doc = _load_archive(path)
            dt = float(doc["dt"])
            for run_doc in doc["runs"]:
                trajs = [trajectory_from_dict(t) for t in run_doc["trajectories"]]
                seeds = seeds_from_run(trajs, window=params.window)
                if not seeds:
                    continue
                config = SimulationConfig(scene=scene, dt=dt,
                                          pedestrians=tuple(seeds), params=params,
                                          max_steps=args.max_steps)
                result = run_simulation(config, net)
                sim_tracks = [Track(ped_id=t.ped_id,
                                    steps=np.asarray(t.steps, dtype=int),
                                    positions=t.positions, dt=dt)
                              for t in result.trajectories]
                exp_tracks = _tracks_from_run(run_doc, dt)
                report = evaluate_run(sim_tracks, exp_tracks,
                                      run=str(run_doc["name"]), model="tcn",
                                      focus_area=None)
                reports.append(((de, beta), report))
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

    def extraction(p, with_defaults=True):
        d = (lambda v: v) if with_defaults else (lambda v: None)
        p.add_argument("--beta", type=float, default=d(10.0),
                       help="vision ray spacing, degrees")
        p.add_argument("--de", type=float, default=d(20.0),
                       help="vision range D_e, metres")
        p.add_argument("--alpha", type=float, default=d(18.0),
                       help="social sector width, degrees")
        p.add_argument("--radius", type=float, default=d(1.2),
                       help="social perception radius, metres")
        p.add_argument("--window", type=int, default=d(8),
                       help="lookback window, steps")

    p = sub.add_parser("ingest", help="normalise raw trajectory files into an archive")
    common(p)
    p.add_argument("--data", nargs="+", required=True, help="raw trajectory files")
    p.add_argument("--fps", type=float, default=25.0, help="recording frame rate")
    p.add_argument("--unit-scale", type=float, default=0.01, dest="unit_scale",
                   help="factor converting input units to metres")
    p.add_argument("--role", choices=["train_val", "test"], default="train_val")
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--module", default=None, help="module whose focus area to clip to")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the velocity predictor on archives")
    common(p)
    p.add_argument("--data", nargs="+", required=True, help="dataset archives")
    extraction(p)
    p.add_argument("--iters", type=int, default=3000, help="Adam iterations")
    p.add_argument("--batch", type=int, default=512, help="minibatch size")
    p.add_argument("--lr", type=float, default=1e-4, help="learning rate")
    p.add_argument("--channels", default="32,64,96", help="TCN channels per block")
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--val-every", type=int, default=50, dest="val_every")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="closed-loop simulation seeded from a run")
    common(p)
    p.add_argument("--data", required=True, help="dataset archive providing seeds")
    p.add_argument("--model", choices=["tcn", "sf"], default="tcn")
    p.add_argument("--checkpoint", default=None, help="trained checkpoint (model tcn)")
    p.add_argument("--run", default=None, help="run name inside the archive")
    p.add_argument("--max-steps", type=int, default=2000, dest="max_steps")
    extraction(p, with_defaults=False)
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
    p.add_argument("--de", default="20,100", help="comma list of vision ranges")
    p.add_argument("--beta", default="5,10,15,18", help="comma list of ray spacings")
    p.add_argument("--alpha", type=float, default=18.0)
    p.add_argument("--radius", type=float, default=1.2)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--channels", default="8,8", help="TCN channels per block")
    p.add_argument("--dropout", type=float, default=0.0)
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

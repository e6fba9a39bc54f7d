"""Workloads, correctness checks and metrics of the crowdsim benchmark.

Imported by run.py after bootstrap.prepare(); see run.py for usage.  A run
sets up its inputs in a fresh process, then runs the workload's job (a
fixed list of CLI commands, each through `crowdsim.cli.main` in this
process) one after another until the time is up: a closed loop with one
client.  SETUP_REPEATS - 1 more set-ups, each in a fresh process, are spread
evenly between the jobs; their time does not count against the run's
seconds.  With tracing on, untraced and traced jobs alternate, so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import bootstrap
import inputs
from bootstrap import CpuPicker
from tracing import Tracer, self_times, summarise

from crowdsim.cli import main as cli_main
from crowdsim.geometry import first_wall_crossing, point_in_module
from crowdsim.io import load_checkpoint, read_csv
from crowdsim.network import VelocityPredictor
from crowdsim.scene_library import resolve_scene

CHECKPOINT = Path("perfbench") / "checkpoint.json"
CHECKPOINT_SHA256 = "e4ba50e7ad60ec4404894db1ba54716205adf51e1b9811f6ab7b67a8a85ba873"
WORK = Path(".perfbench")
SETUP_REPEATS = 7
MIN_JOBS = 2

WINDOW = 8
PROTOCOL = ["--beta", "5", "--de", "100", "--alpha", "18", "--radius", "1.2",
            "--window", str(WINDOW)]
TRAIN_ITERS = 6
TRAIN_BATCH = 512
CROWD_MAX_STEPS = 32
MODELS = ("tcn", "sf")          # crowd: simulated one after the other in each job


def sha256_of(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


@dataclass
class Job:
    """One pass over the workload's commands, with what the checks found."""

    traced: bool
    cpu: int
    elapsed: float = 0.0
    command_s: dict[str, float] = field(default_factory=dict)
    command_ids: list[int] = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    items: int = 0
    digest: str = ""
    counters: dict = field(default_factory=dict)
    # crowd: ped-steps moved by each model, from its trajectories.csv
    model_steps: dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.command_s.values())

    def fail(self, op, problem: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(problem)


class Workload:
    name = ""
    items_name = ""             # what throughput_per_s counts
    items_commands: tuple[str, ...] = ()    # the commands whose wall time it divides by

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.job_dir = work / "job"
        self.inputs = work / "inputs"

    def make_inputs(self, out: Path) -> list[Path]:
        raise NotImplementedError

    def commands(self) -> list[tuple[str, list[str]]]:
        """(label, CLI argv) of each command of one job, in order."""
        raise NotImplementedError

    def check(self, job: Job) -> None:
        raise NotImplementedError

    def trace_expectations(self, job: Job) -> dict[tuple[str, str], int]:
        """(span name, LayerTotals field) -> value the job's outputs imply."""
        raise NotImplementedError

    def metadata(self) -> dict:
        return {}


class TrainWorkload(Workload):
    name = "train"
    items_name = "train_samples_per_s"
    items_commands = ("train",)

    def __init__(self, seed, work, iters=TRAIN_ITERS):
        super().__init__(seed, work)
        self.iters = iters

    def make_inputs(self, out):
        return inputs.write_corridor_recordings(np.random.default_rng(self.seed), out)

    def commands(self):
        raw = sorted(str(p) for p in self.inputs.glob("*.txt"))
        return [
            ("ingest", ["ingest", "--scene", "corridor", "--fps", str(inputs.CORRIDOR_FPS),
                        "--data", *raw, "--out", str(self.job_dir / "ingest")]),
            ("train", ["train", "--scene", "corridor",
                       "--data", str(self.job_dir / "ingest" / "dataset.json"),
                       *PROTOCOL, "--channels", "32,64,96", "--batch", str(TRAIN_BATCH),
                       "--iters", str(self.iters), "--val-every", str(self.iters),
                       "--seed", str(self.seed), "--out", str(self.job_dir / "model")]),
        ]

    def check(self, job):
        model = self.job_dir / "model"
        job.items = self.iters * TRAIN_BATCH
        if "train" in job.failed_ops:
            return
        _, rows = read_csv(model / "loss_history.csv")
        losses = np.array([[float(v) for v in r[1:]] for r in rows])
        if losses.size == 0 or not np.all(np.isfinite(losses)):
            job.fail("train", "loss history is empty or not finite")
        try:
            ckpt = load_checkpoint(model / "checkpoint.json")
            VelocityPredictor(ckpt.network).load_state_dict(ckpt.state)
        except (ValueError, KeyError) as exc:
            job.fail("train", f"checkpoint does not reload: {exc}")
        job.digest = sha256_of(self.job_dir / "ingest" / "dataset.json",
                               model / "checkpoint.json", model / "loss_history.csv")

    def trace_expectations(self, job):
        return {("network.adam_step", "calls"): self.iters,
                ("network.forward.train", "calls"): self.iters}

    def metadata(self):
        return {"iterations": self.iters, "batch": TRAIN_BATCH,
                "recordings": inputs.TRAIN_FILES,
                "tracks": inputs.TRAIN_FILES * inputs.TRAIN_PEDS_PER_FILE,
                "samples": inputs.TRAIN_FILES * inputs.TRAIN_PEDS_PER_FILE
                * (inputs.TRAIN_FRAMES - 1 - WINDOW)}


class CrowdWorkload(Workload):
    """One crowd in the composite scene, run by each model in turn.

    The TCN run (frozen checkpoint) exercises features, geometry, the wall
    guard and network inference; the social-force run bypasses features and
    network for its own pair loop and run lifecycle.  Each is followed by
    evaluate and fd on its output.
    """

    name = "crowd"
    items_name = "ped_steps_per_s"
    items_commands = tuple(f"simulate.{m}" for m in MODELS)

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.scene = resolve_scene("composite")
        self.peds = self.crowd_at_start = 0

    def make_inputs(self, out):
        out.mkdir(parents=True, exist_ok=True)
        if sha256_of(CHECKPOINT) != CHECKPOINT_SHA256:
            raise SystemExit(f"error: {CHECKPOINT} does not match its pinned sha256; "
                             "regenerate it with perfbench/make_checkpoint.py")
        inputs.write_crowd_archive(np.random.default_rng(self.seed), self.scene,
                                   out / "crowd.json", WINDOW, CROWD_MAX_STEPS)
        inputs.write_focus_free_scene(self.scene, out / "scene_whole.json")
        return [out / "crowd.json", out / "scene_whole.json"]

    def commands(self):
        archive = str(self.inputs / "crowd.json")
        out = []
        for model in MODELS:
            sim = self.job_dir / f"sim_{model}"
            checkpoint = ["--checkpoint", str(CHECKPOINT)] if model == "tcn" else []
            out += [
                (f"simulate.{model}",
                 ["simulate", "--scene", "composite", "--data", archive,
                  "--model", model, *checkpoint, "--run", "crowd",
                  "--max-steps", str(CROWD_MAX_STEPS), "--seed", str(self.seed),
                  "--out", str(sim)]),
                # the bundled composite has four focus areas and no pedestrian
                # visits all of them; evaluate over the whole scene instead
                (f"evaluate.{model}",
                 ["evaluate", "--scene", str(self.inputs / "scene_whole.json"),
                  "--data", archive, "--sim", str(sim / "trajectories.csv"),
                  "--run", "crowd", "--model", model,
                  "--out", str(self.job_dir / f"eval_{model}")]),
                (f"fd.{model}",
                 ["fd", "--scene", "composite", "--data", str(sim / "trajectories.csv"),
                  "--out", str(self.job_dir / f"fd_{model}")]),
            ]
        return out

    def check(self, job):
        digests = []
        for model in MODELS:
            if f"simulate.{model}" not in job.failed_ops:
                digests.append(self.check_run(job, model))
        job.digest = ",".join(digests)

    def check_run(self, job, model) -> str:
        """Check one model's trajectories.csv; returns its sha256."""
        path = self.job_dir / f"sim_{model}" / "trajectories.csv"
        header, rows = read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        by_ped: dict[str, list] = {}
        for r in rows:
            by_ped.setdefault(r[col["ped_id"]], []).append(
                (int(r[col["step"]]), float(r[col["x_m"]]), float(r[col["y_m"]]),
                 r[col["module_id"]], int(r[col["reset_flag"]])))
        job.attempted += len(by_ped)
        self.peds = len(by_ped)
        self.crowd_at_start = sum(1 for pid in by_ped if pid.startswith("p"))
        job.items += len(rows)
        job.model_steps[model] = 0
        active: dict[int, int] = {}
        holds = exited = resets = 0
        max_step = 0.0
        for pid, recs in by_ped.items():
            recs.sort()
            pos = np.array([[x, y] for _, x, y, _, _ in recs])
            resets += sum(r[4] for r in recs)
            for s, *_ in recs:
                active[s] = active.get(s, 0) + 1
            # one row per committed step; the first WINDOW - 1 moves replay the seed
            job.model_steps[model] += max(0, len(recs) - WINDOW)
            if not np.all(np.isfinite(pos)):
                job.fail(("ped", model, pid), f"{model} pedestrian {pid}: non-finite position")
                continue
            moves = np.linalg.norm(np.diff(pos, axis=0), axis=1)
            if moves.size:
                max_step = max(max_step, float(moves.max()))
                holds += int(np.count_nonzero(moves[WINDOW - 1:] == 0.0))
            module = recs[-1][3]
            left = (len(pos) >= 2 and self.scene.successor[module] is None
                    and first_wall_crossing(pos[-2], pos[-1],
                                            self.scene.module(module).exit[None]) is not None)
            if left:
                exited += 1
            elif point_in_module(self.scene, pos[-1]) is None:
                job.fail(("ped", model, pid), f"{model} pedestrian {pid} ends outside "
                                              f"every module at {tuple(pos[-1])} without exiting")
        job.counters.update({
            f"simulate.{model}.ped_steps": len(rows),
            f"simulate.{model}.peak_active": max(active.values(), default=0),
            f"simulate.{model}.reset_rows": resets,
            f"simulate.{model}.holds": holds,
            f"simulate.{model}.exited": exited,
            f"simulate.{model}.truncated": len(by_ped) - exited,
            f"simulate.{model}.max_step_m": max_step,
        })
        return sha256_of(path)

    def trace_expectations(self, job):
        return {("network.predict", "amount"): job.model_steps.get("tcn", 0),
                ("social_force.sf_acceleration", "calls"): job.model_steps.get("sf", 0)}

    def metadata(self):
        return {"crowd_at_start": self.crowd_at_start, "pedestrians": self.peds,
                "entry_every_steps": inputs.ENTRY_EVERY, "max_steps": CROWD_MAX_STEPS,
                "models": ",".join(MODELS), "checkpoint_sha256": CHECKPOINT_SHA256}


WORKLOADS = {w.name: w for w in (TrainWorkload, CrowdWorkload)}


# --- per-layer metrics --------------------------------------------------------

# per-layer metric -> (span name, LayerTotals field); medians over traced jobs.
# What each should move:
#   features.*, geometry.ray_cast_batch  -> ped_steps_per_s on crowd (wall_s on train)
#   geometry crossings, point_in_module  -> ped_steps_per_s on crowd
#   network.forward/backward/adam/train  -> train_samples_per_s, peak_rss_mb on train
#   network.predict, simulate.step       -> ped_steps_per_s on crowd
#   social_force.*                       -> ped_steps_per_s on crowd
#   ingest.*                             -> wall_s on train
#   metrics.*                            -> wall_s on crowd
#   io.*, cli.*                          -> wall_s on every workload, split by stage
SPAN_METRICS = {
    "features.extract_step.calls": ("features.extract_step", "calls"),
    "features.extract_step.self_s": ("features.extract_step", "self_s"),
    "features.extract_social.s": ("features.extract_social", "s"),
    "features.wall_points_in_disk.s": ("features.wall_points_in_disk", "s"),
    "features.extract_visual.s": ("features.extract_visual", "s"),
    "geometry.ray_cast_batch.calls": ("geometry.ray_cast_batch", "calls"),
    "geometry.ray_cast_batch.s": ("geometry.ray_cast_batch", "s"),
    "geometry.first_wall_crossing.calls": ("geometry.first_wall_crossing", "calls"),
    "geometry.first_wall_crossing.s": ("geometry.first_wall_crossing", "s"),
    "geometry.point_in_module.calls": ("geometry.point_in_module", "calls"),
    "geometry.point_in_module.s": ("geometry.point_in_module", "s"),
    "geometry.segment_crossing.calls": ("geometry.segment_crossing", "calls"),
    "geometry.segment_crossing.s": ("geometry.segment_crossing", "s"),
    "network.forward.train_s": ("network.forward.train", "s"),
    "network.forward.eval_s": ("network.forward.eval", "s"),
    "network.backward.s": ("network.backward", "s"),
    "network.adam_step.calls": ("network.adam_step", "calls"),
    "network.adam_step.s": ("network.adam_step", "s"),
    "network.train.s": ("network.train", "s"),
    "network.predict.calls": ("network.predict", "calls"),
    "network.predict.rows": ("network.predict", "amount"),
    "network.predict.s": ("network.predict", "s"),
    "simulate.step.calls": ("simulate.step", "calls"),
    "simulate.step.self_s": ("simulate.step", "self_s"),
    "social_force.sf_run.self_s": ("social_force.sf_run", "self_s"),
    "social_force.sf_acceleration.calls": ("social_force.sf_acceleration", "calls"),
    "social_force.sf_acceleration.s": ("social_force.sf_acceleration", "s"),
    "social_force.desired_direction.s": ("social_force.desired_direction", "s"),
    "ingest.parse_trajectories.s": ("ingest.parse_trajectories", "s"),
    "ingest.build_samples.s": ("ingest.build_samples", "s"),
    "ingest.build_samples.samples": ("ingest.build_samples", "amount"),
    "ingest.samples_to_arrays.s": ("ingest.samples_to_arrays", "s"),
    "metrics.evaluate_run.s": ("metrics.evaluate_run", "s"),
    "metrics.fundamental_diagram.s": ("metrics.fundamental_diagram", "s"),
    "io.write_csv.s": ("io.write_csv", "s"),
    "io.write_csv.bytes": ("io.write_csv", "amount"),
    "io.write_json.s": ("io.write_json", "s"),
    "io.save_checkpoint.s": ("io.save_checkpoint", "s"),
    "io.load_checkpoint.s": ("io.load_checkpoint", "s"),
    **{f"cli.{c}.s": (f"cli.{c}", "s")
       for c in ("ingest", "train", "simulate", "evaluate", "fd")},
}
# deterministic traffic counters read from each model's trajectories.csv (crowd only)
TRAFFIC = tuple(f"simulate.{m}.{c}" for m in MODELS
                for c in ("ped_steps", "peak_active", "reset_rows", "holds", "exited",
                          "truncated", "max_step_m"))
OTHER_LAYER_METRICS = ("simulate.step.ms_p50", "simulate.step.ms_p95",
                       "trace.overhead_frac") + TRAFFIC
END_TO_END = ("setup_s", "wall_s", "throughput_per_s", "peak_rss_mb")


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics that BENCHMARK.json lists.

    Raises SystemExit when its names and the metrics computed here differ.
    """
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if set(e2e) != set(END_TO_END) or set(layer) != set(SPAN_METRICS) | set(OTHER_LAYER_METRICS):
        raise SystemExit("error: BENCHMARK.json metric names differ from perfbench/bench.py")
    return e2e, layer


# --- running ------------------------------------------------------------------

def run_command(argv: list[str], tracer: Tracer | None):
    """One CLI command in this process: exit code, seconds, output, command id."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        with tracer.command(f"cli.{argv[0]}") if tracer is not None else nullcontext() as cid:
            t0 = perf_counter()
            try:
                code = cli_main(argv)
            except SystemExit as exc:       # argparse rejected the arguments
                code = exc.code
            elapsed = perf_counter() - t0
    return code, elapsed, out.getvalue(), cid


def run_job(workload: Workload, tracer: Tracer | None, picker: CpuPicker) -> Job:
    job = Job(traced=tracer is not None, cpu=picker.pin())
    t0 = perf_counter()
    for name, argv in workload.commands():
        code, elapsed, output, cid = run_command(argv, tracer)
        job.command_s[name] = elapsed
        job.command_ids.append(cid)
        job.attempted += 1
        if code != 0:
            tail = output.strip().splitlines()[-1:] or ["(no output)"]
            job.fail(name, f"{name} exited {code}: {tail[0]}")
    workload.check(job)
    job.elapsed = perf_counter() - t0
    return job


def run_jobs(workload: Workload, seconds: float, tracer: Tracer | None,
             picker: CpuPicker, setups: SetUps) -> list[Job]:
    """Jobs back to back until the next would end after `seconds` of jobs.

    Each job starts on the CPU the picker finds fastest.  With a tracer,
    untraced and traced jobs alternate.  Set-up k is due once k/SETUP_REPEATS
    of the seconds are used; every set-up is done by the end.
    """
    jobs: list[Job] = []
    start, paused = perf_counter(), 0.0
    while True:
        while not setups.done and perf_counter() - start - paused >= (
                len(setups.times) * seconds / SETUP_REPEATS):
            paused += setups.one()
        traced = tracer is not None and len(jobs) % 2 == 1
        jobs.append(run_job(workload, tracer if traced else None, picker))
        typical = statistics.median(j.elapsed for j in jobs)
        if len(jobs) >= MIN_JOBS and perf_counter() - paused + typical > start + seconds:
            break
    while not setups.done:
        setups.one()
    return jobs


class SetUps:
    """The set-ups of one run, each in a fresh process.

    Each is timed from process start until the child reports that its
    inputs are written (imports, checks, input generation: all that precedes
    the first command).  The first writes the inputs the jobs use; the
    others go to a scratch directory, which is removed.
    """

    def __init__(self, workload: Workload, picker: CpuPicker):
        self.workload, self.picker = workload, picker
        self.times: list[float] = []
        self.digests: list[str] = []

    @property
    def done(self) -> bool:
        return len(self.times) >= SETUP_REPEATS

    @property
    def agree(self) -> bool:
        """Whether every set-up wrote the same inputs."""
        return len(set(self.digests)) == 1

    def one(self) -> float:
        """Set up once; returns the seconds spent, CPU pinning included."""
        t_start = perf_counter()
        k = len(self.times)
        out = self.workload.inputs if k == 0 else self.workload.work / f"inputs.{k}"
        self.picker.pin()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).with_name("run.py")),
                               "--workload", self.workload.name,
                               "--seed", str(self.workload.seed),
                               "--setup-into", str(out)],
                              stdout=subprocess.PIPE, text=True) as child:
            digest = child.stdout.readline().strip()
            self.times.append(perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or not digest:
            raise SystemExit(f"error: set-up of {self.workload.name} failed "
                             f"(exit {child.returncode})")
        self.digests.append(digest)
        if k:
            shutil.rmtree(out)
        return perf_counter() - t_start


def set_up_once(args) -> int:
    """The child side of set_up(): write the inputs, then print their digest."""
    bootstrap.check_import()
    declared_units()
    workload = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    files = workload.make_inputs(Path(args.setup_into))
    print(sha256_of(*sorted(files)), flush=True)
    return 0


def deciles(values: list[float]) -> tuple[float, float, float]:
    """10th percentile, median and 90th percentile of the values.

    The end-to-end timings report the fast-side decile: on a shared host,
    contention from other tenants only ever adds time, and in runs of the
    same code it moved the median between runs about twice as much.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    d = statistics.quantiles(values, n=10, method="inclusive")
    return d[0], d[4], d[8]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((bootstrap.SRC / "crowdsim").rglob("*.py")))


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


# a command's root span opens just before run_command starts its clock and
# closes just after it stops it
ROOT_SPAN_SLACK_S = 1e-3


def check_trace(workload: Workload, job: Job, spans, totals) -> list[str]:
    """Compare one traced job's spans with what was measured without them.

    Each `cli.<command>` span must cover the elapsed time run_command
    measured, within ROOT_SPAN_SLACK_S, and the call and row counts that
    the job's outputs imply must match the spans recorded.
    """
    problems = []
    roots = [s for s in spans if s.parent is None]
    for s, (name, argv) in zip(roots, workload.commands()):
        extra = (s.end - s.start) - job.command_s[name]
        if s.name != f"cli.{argv[0]}" or not 0.0 <= extra < ROOT_SPAN_SLACK_S:
            problems.append(f"span {s.name} does not match {name}'s "
                            f"{job.command_s[name]:.4f} s (off by {extra:.2e} s)")
    for (span, attr), want in workload.trace_expectations(job).items():
        got = getattr(totals[span], attr) if span in totals else 0
        if got != want:
            problems.append(f"trace has {span}.{attr} = {got}, the outputs imply {want}")
    return problems


def layer_metrics(workload: Workload, jobs: list[Job], tracer: Tracer):
    """Per-layer metrics, trace-check problems per traced job, step count,
    and the median share of each command's span that no child span covers."""
    traced = [j for j in jobs if j.traced]
    per_job, problems, step_ms = [], [], []
    uncovered: dict[str, list[float]] = {}
    for job in traced:
        ids = set(job.command_ids)
        spans = [s for s in tracer.spans if s.command in ids]
        totals = summarise(spans)
        per_job.append(totals)
        problems.append(check_trace(workload, job, spans, totals))
        step_ms += [1e3 * (s.end - s.start) for s in spans if s.name == "simulate.step"]
        selfs = self_times(spans)
        for s in spans:
            if s.parent is None:
                uncovered.setdefault(s.name, []).append(selfs[s.span_id] / (s.end - s.start))
    out = {}
    for metric, (span, attr) in SPAN_METRICS.items():
        out[metric] = statistics.median(getattr(t[span], attr) if span in t else 0
                                        for t in per_job)
    out["simulate.step.ms_p50"] = float(np.percentile(step_ms, 50)) if step_ms else 0.0
    out["simulate.step.ms_p95"] = float(np.percentile(step_ms, 95)) if step_ms else 0.0
    out["trace.overhead_frac"] = (statistics.median(j.wall_s for j in traced)
                                  / statistics.median(j.wall_s for j in jobs if not j.traced)
                                  - 1.0)
    for name in TRAFFIC:
        out[name] = jobs[0].counters.get(name, 0)
    return (out, problems, len(step_ms),
            {name: statistics.median(v) for name, v in uncovered.items()})


def run(args, picker: CpuPicker) -> int:
    bootstrap.check_import()
    e2e_units, layer_units = declared_units()
    workload = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    shutil.rmtree(workload.work, ignore_errors=True)
    workload.work.mkdir(parents=True)
    setups = SetUps(workload, picker)
    setups.one()

    tracer = Tracer() if args.trace else None
    with tracer.patched() if tracer is not None else nullcontext():
        jobs = run_jobs(workload, args.seconds, tracer, picker, setups)
    inputs_agree = setups.agree

    # one extra operation: the run's reproducibility (inputs and outputs per seed)
    problems = [p for j in jobs for p in j.problems]
    if not inputs_agree:
        problems.append("input generation is not deterministic for one seed")
    digests = sorted({j.digest for j in jobs})
    if len(digests) != 1:
        problems.append(f"outputs differ between repeated jobs of one seed: {digests}")
    attempted = sum(j.attempted for j in jobs) + 1
    failed = sum(len(j.failed_ops) for j in jobs) + int(not inputs_agree or len(digests) != 1)

    untraced = [j for j in jobs if not j.traced]
    walls = deciles([j.wall_s for j in untraced])
    rates = deciles([j.items / sum(j.command_s[c] for c in workload.items_commands)
                     for j in untraced])
    e2e = {"setup_s": statistics.median(setups.times),
           "wall_s": walls[0],
           "throughput_per_s": rates[2],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    medians = {"setup_s": (statistics.median(setups.times), len(setups.times), "set-ups"),
               "wall_s": (walls[1], len(untraced), "jobs"),
               "throughput_per_s": (rates[1], len(untraced), "jobs")}
    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "setup_repeats": SETUP_REPEATS,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "blas_threads": bootstrap.BLAS_THREADS,
            "src_lines": src_lines(), "jobs": len(jobs), "untraced_jobs": len(untraced),
            "digest": jobs[0].digest, **workload.metadata()}
    record = {"meta": meta, "end_to_end": e2e,
              "jobs": [{"traced": j.traced, "cpu": j.cpu, "command_s": j.command_s, "items": j.items,
                        "attempted": j.attempted, "failed": len(j.failed_ops),
                        "digest": j.digest, "counters": j.counters} for j in jobs]}

    print(f"# crowdsim benchmark: {' '.join(f'{k}={v}' for k, v in meta.items())}")
    print("# wall_s is the 10th percentile of the untraced jobs' times, "
          "throughput_per_s the 90th percentile of their rates; setup_s is a median")
    for name in END_TO_END:
        alias = f" {workload.items_name}" if name == "throughput_per_s" else ""
        median = (f" median {medians[name][0]:.6f} of {medians[name][1]} {medians[name][2]}"
                  if name in medians else "")
        print(f"{name:<36} {e2e[name]:>16.6f} {e2e_units[name]}{alias}{median}")
    metrics = {name: {"value": e2e[name], "unit": e2e_units[name]} for name in END_TO_END}
    if tracer is not None:
        layers, trace_problems, steps, uncovered = layer_metrics(workload, jobs, tracer)
        for name, unit in layer_units.items():
            print(f"{name:<36} {layers[name]:>16.6f} {unit}")
        print(f"# {len(trace_problems)} traced jobs, {steps} simulate.step samples; "
              "share of each command span outside every child span: "
              + ", ".join(f"{k} {v:.3f}" for k, v in uncovered.items())
              + f"; unpatched: {', '.join(tracer.missing) or 'none'}")
        attempted += len(trace_problems)
        failed += sum(1 for p in trace_problems if p)
        problems += [p for ps in trace_problems for p in ps]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units.items()}
        record["per_layer"] = layers
        tracer.write(workload.work / "spans.json")
    print(f"{'fail_frac':<36} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} operations)")
    for p in problems:
        print(f"FAILED: {p}")
    record["problems"] = problems
    with open(workload.work / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

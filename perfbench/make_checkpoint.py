"""Regenerate the frozen model that the crowd workload's TCN runs simulate with.

    python3 perfbench/make_checkpoint.py

Runs the `train` workload's own commands once, through the real CLI, on
its synthetic corridor recordings of seed RECORDING_SEED, with ITERATIONS
training iterations instead of the benchmark's few, and writes
perfbench/checkpoint.json.  Print the sha256 it reports into
bench.CHECKPOINT_SHA256: the benchmark refuses a checkpoint with another
digest, so crowd traffic cannot drift when training numerics change.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys

import bootstrap

bootstrap.prepare()

from bench import WORK, TrainWorkload, run_command  # noqa: E402

RECORDING_SEED = 20250
ITERATIONS = 300
OUT = bootstrap.ROOT / "perfbench" / "checkpoint.json"


def main() -> int:
    bootstrap.check_import()
    # relative paths keep the manifest hash inside the checkpoint reproducible
    workload = TrainWorkload(RECORDING_SEED, WORK / "make_checkpoint",
                             iters=ITERATIONS)
    shutil.rmtree(workload.work, ignore_errors=True)
    workload.make_inputs(workload.inputs)
    for name, argv in workload.commands():
        code, elapsed, output, _ = run_command(argv, None)
        print(f"{name}: exit {code} in {elapsed:.1f} s\n{output.rstrip()}")
        if code != 0:
            return 1
    shutil.copyfile(workload.job_dir / "model" / "checkpoint.json", OUT)
    print(f"sha256 {hashlib.sha256(OUT.read_bytes()).hexdigest()}  {OUT.name}")
    return 0


if __name__ == "__main__":
    os.chdir(bootstrap.ROOT)
    sys.exit(main())

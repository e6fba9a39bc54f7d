"""Benchmark of the crowdsim pipeline, driven through the real CLI.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one process each

Workloads (inputs are generated from --seed; the program only sees files):
  train      synthetic corridor recordings -> ingest -> train at the paper
             protocol (beta 5, D_e 100, channels 32/64/96, batch 512)
  crowd      a near-capacity crowd in the composite scene, simulated with
             --model tcn (frozen checkpoint.json) and then with --model sf,
             each followed by evaluate and fd

Every metric is printed by name with its unit.  With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics: setup_s (median,
over fresh processes spread across the run, of the time from process start
until the inputs of the first command are written), wall_s (10th
percentile of the jobs' times), throughput_per_s (90th percentile of the
jobs' rates: ped_steps_per_s on crowd, iterations x batch per second of
`train` on train) and peak_rss_mb; the medians are printed beside them.  fail_frac is
printed, and carried by the JSON's attempted/failed counts.  With --trace 1
the JSON holds the per-layer metrics of traced jobs instead.  Work files
and spans go to .perfbench/<workload>/ under the checkout root.  Exit
status is 0 when a result was printed, whether or not the checks passed
(see "correct" in the JSON).
"""

import argparse
import os
import subprocess
import sys

import bootstrap

WORKLOAD_NAMES = ("train", "crowd")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=60, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-process set-up that writes the inputs to this directory
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"=== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    bootstrap.prepare()
    os.chdir(bootstrap.ROOT)
    import bench

    if args.setup_into:
        return bench.set_up_once(args)
    return bench.run(args, bootstrap.CpuPicker())


if __name__ == "__main__":
    sys.exit(main())

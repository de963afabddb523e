#!/usr/bin/env python3
"""Exactness self-check of the benchmark.

The exact metrics (ratio, modelled cycles per KiB, and the simulator's
event counts per KiB) are functions of the seed alone. This script runs
every workload twice with one seed and once with the next seed, in both
the untraced and the traced mode, and checks that:

* the two same-seed runs report every exact metric bit for bit alike;
* the next seed changes the inputs, so at least one exact metric moves;
* every run reports correct outputs.

Run from the repository root (takes a few minutes):

    python3 perfbench/check_exact.py [--seed N]
"""

import argparse
import json
import subprocess
import sys

with open("BENCHMARK.json", encoding="utf-8") as spec_file:
    SPEC = json.load(spec_file)
COMMAND = SPEC["command"]
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
EXACT = {
    0: ["ratio", "model_enc_cycles_per_kib", "model_dec_cycles_per_kib"],
    1: [
        f"gpusim.{side}.{count}_per_kib"
        for side in ("enc", "dec")
        for count in ("shared_accesses", "global_transactions", "warp_issue_ops", "barriers")
    ],
}


def run(workload, seed, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(COMMAND + args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: outputs not correct\n{done.stderr}")
    # Compare the printed numbers as text: shortest round-trip decimals,
    # so equal text means equal bits.
    raw = {name: repr(metric["value"]) for name, metric in result["metrics"].items()}
    return {name: raw[name] for name in EXACT[trace]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, again, other = (run(workload, s, trace) for s in (seed, seed, seed + 1))
            same = first == again
            moved = first != other
            print(f"{workload:13s} trace {trace}: repeat {'ok' if same else 'DIFFERS'}, "
                  f"next seed {'changes inputs' if moved else 'CHANGES NOTHING'}")
            if not same:
                for name in EXACT[trace]:
                    if first[name] != again[name]:
                        print(f"  {name}: {first[name]} vs {again[name]}")
            failures += (not same) + (not moved)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

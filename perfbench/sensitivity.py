"""Sensitivity self-check: does each workload see the layer it loads?

For every case below, runs the benchmark on the workload that loads a
layer and on the workload that bypasses it, first plainly and then with
``--inject-delay`` adding a fixed busy-wait to every call of that
layer's functions.  Prints, per workload and end-to-end metric, the
median change and whether it leaves the bound in ``BENCHMARK.json``.
The prediction: the loading workload's ``shots_per_s`` leaves its
bound, the bypass workload's stays within it.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/sensitivity.py --seconds 12 --seeds 21,22,23
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (delay spec, workload that loads the layer, workload that bypasses it)
CASES = (
    ("control.run=0.008", "shor37q-6core", "chain9q-batched"),
    ("tracecache.replay=0.001", "chain9q-batched", "shor37q-6core"),
)


def run(workload: str, seed: int, seconds: str,
        delay: str | None) -> dict[str, float]:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", "0"]
    if delay is not None:
        command += ["--inject-delay", delay]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="12")
    parser.add_argument("--seeds", default="21,22,23")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    print("| delay | workload | role | metric | plain | delayed | "
          "worse by | bound | outside |")
    print("|---|---|---|---|---|---|---|---|---|")
    for delay, loads, bypasses in CASES:
        for workload, role in ((loads, "loads"), (bypasses, "bypasses")):
            plain = [run(workload, seed, args.seconds, None)
                     for seed in seeds]
            delayed = [run(workload, seed, args.seconds, delay)
                       for seed in seeds]
            for name, entry in metrics.items():
                before = statistics.median(r[name] for r in plain)
                after = statistics.median(r[name] for r in delayed)
                worse = ((before - after) / before
                         if entry["better"] == "higher"
                         else (after - before) / before)
                print(f"| `{delay}` | {workload} | {role} | {name} | "
                      f"{before:.4g} | {after:.4g} | {worse:+.1%} | "
                      f"{entry['bound']:.0%} | "
                      f"{'yes' if worse > entry['bound'] else 'no'} |",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer-attributed shot benchmark of the QuAPE control stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chain9q-batched --seed 1 \\
        --seconds 8 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of an untraced timed
sweep; with ``--trace 1`` they are the per-layer ones of a separate
traced pass over the same seeds, whose spans are also written to
``.perfbench-out/``.  ``README.md`` next to this file names every
workload, metric and layer.

``--shots N`` replaces the time limit with exactly ``N`` seeds
(``--workload shor37q-6core --seed 0 --shots 60`` reruns the 60 seeds
of Fig. 11b).  ``--inject-delay PREFIX=SECONDS`` adds a busy-wait to
every call of the traced functions whose span name starts with
``PREFIX``: the sensitivity self-check (``sensitivity.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("chain9q-batched", "surface5-noisy", "shor37q-6core",
             "dense9q-service")


def fingerprint() -> dict:
    import numpy

    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform()}


def make_workload(name: str):
    import workloads

    return {"chain9q-batched": workloads.Chain9qBatched,
            "surface5-noisy": workloads.Surface5Noisy,
            "shor37q-6core": workloads.Shor37q6Core,
            "dense9q-service": lambda: workloads.Dense9qService(OUT_DIR),
            }[name]()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--inject-delay", default=None)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.shots is not None and args.shots < 3:
        parser.error("--shots must be at least 3")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import workloads
    from tracing import Tracer, inject_delay

    machine = fingerprint()
    # One CPU for the whole run, the service's worker included, so the
    # host-speed probe measures the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = make_workload(args.workload)
    tracer = Tracer() if args.trace else None
    delays = (inject_delay(args.inject_delay)
              if args.inject_delay else None)
    try:
        result = workload.run(args.seed * workloads.SEED_STRIDE,
                              args.seconds, args.shots, tracer)
    finally:
        if delays is not None:
            delays.restore()
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        result.notes["spans"] = {name: entry for name, entry
                                 in sorted(tracer.summary().items())}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "inject_delay": args.inject_delay,
                      "machine": machine, **result.notes},
                     sort_keys=True))
    print(json.dumps({
        "correct": result.checks_ok and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

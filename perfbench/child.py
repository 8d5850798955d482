"""One benchmark process: set up a workload, optionally run it, print JSON.

Started by ``run.py`` in a fresh interpreter per run, so process-global
memos (the operation engine's horizon and evaluator caches, the engine's
network cache) start cold every time.  ``setup_s`` is measured from the
top of this file, so it includes the library imports.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \\
        --mode setup|run --trace 0|1 --scratch DIR
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    """The library's environment stamp plus BLAS, its threads and the commit."""
    import numpy
    from repro.telemetry.env import environment_info

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    from _bench_utils import _git_sha

    info = environment_info()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the layout of show_config differs across numpy
        info["blas"] = f"unknown ({type(exc).__name__})"
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    info["git_sha"] = _git_sha() or "unknown (not a git checkout)"
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, Path(args.scratch))
    workload.setup()
    out: dict = {"setup_s": time.perf_counter() - _START}
    if args.mode == "run":
        if args.trace:
            from layers import TARGETS, per_layer_metrics
            from tracer import Tracer, wrapped_names

            tracer = Tracer()
            with tracer.installed(TARGETS):
                outcome = workload.execute(tracer.paused)
            leftovers = wrapped_names()
            if leftovers:
                print(f"names still rebound after the run: {leftovers}", file=sys.stderr)
                return 1
            outcome["layers"] = per_layer_metrics(
                tracer, outcome["counters"], outcome["work_s"]
            )
        else:
            outcome = workload.execute(contextlib.nullcontext)
        out.update(outcome)
        out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

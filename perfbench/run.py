"""Repository benchmark: operated day, joint eq. (4) design, campaign sweep.

Run from the repository root:

    python3 perfbench/run.py --workload joint-design --seed 1 --seconds 20 --trace 0

Every measurement happens in a fresh child interpreter (``child.py``) with
BLAS pinned to one thread.  With ``--trace 0`` the workload's set-up runs
``N_SETUPS`` times (each in its own process; ``setup_s`` is the median)
and the last of those processes also runs the workload, giving the
end-to-end metrics.  With ``--trace 1`` one child runs the workload
traced and gives the per-layer metrics, the estimated tracing overhead
among them.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for a reader, the environment, and every failed
output check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DECLARATION = HERE.parent / "BENCHMARK.json"
#: Set-up samples per untraced run (``setup_s`` is their median).
N_SETUPS = 7
#: Wall-clock budget of one invocation, children included (seconds).
BUDGET_S = 170.0


class ChildError(RuntimeError):
    """A child process failed, timed out or printed no result."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    source = str(root / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: at most nproc, and steady on a shared machine.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_TELEMETRY", None)
    return env


def run_child(args: argparse.Namespace, mode: str, trace: int, scratch: Path,
              root: Path, deadline: float) -> dict:
    scratch.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace),
        "--scratch", str(scratch),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("time budget exhausted before a child could start")
    try:
        done = subprocess.run(
            command, cwd=root, env=child_env(root), capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child exceeded the {BUDGET_S:.0f} s budget") from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise ChildError(f"{mode} child exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} child printed no result")
    return json.loads(lines[-1])


def end_to_end(run: dict, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(run["op_times"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        if args.trace == 0:
            setups = [
                run_child(args, "setup", 0, scratch / f"setup-{k}", root, deadline)["setup_s"]
                for k in range(N_SETUPS - 1)
            ]
            run = run_child(args, "run", 0, scratch / "run", root, deadline)
            setups.append(run["setup_s"])
            metrics = end_to_end(run, setups)
        else:
            run = run_child(args, "run", 1, scratch / "traced", root, deadline)
            metrics = run["layers"]
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only when no concurrent run still uses it

    declared = json.loads(DECLARATION.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  operations {len(run['op_times'])}")
    print("env " + json.dumps(run["env"], sort_keys=True))
    if args.trace:
        print(f"work_s traced {run['work_s']:.3f}")
    if len(run["op_times"]) <= 24:
        print("op_times_s " + " ".join(f"{t:.3f}" for t in run["op_times"]))
    for reason in run["failures"]:
        print(f"FAILED {reason}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

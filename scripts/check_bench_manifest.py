#!/usr/bin/env python
"""Check that every benchmark's BENCH_*.json artifact is present and sane.

Each ``benchmarks/bench_*.py`` module that calls ``emit_bench_json(<name>)``
is expected to have a committed ``benchmarks/BENCH_<name>.json`` timing
record next to it, so the repo always carries a machine-readable perf
baseline for every figure/table benchmark.  This script cross-references
the two by scanning the benchmark sources for emission names (no imports
needed), then validates each committed record:

* the file exists and parses as JSON;
* its ``name`` field matches the filename;
* it has a positive ``created_unix`` stamp;
* it is not *stale*: its ``driver_sha256`` (the SHA-256 of the emitting
  benchmark module's source when the record was written) still matches
  the module's current source.  A record whose driver has since been
  edited must be regenerated; a record without the hash is *unstamped*.
  Judging by content rather than file mtime keeps fresh checkouts, where
  every source gets a new mtime, from looking stale.

Run from the repository root (CI does)::

    python scripts/check_bench_manifest.py

Exit status is non-zero on any missing, malformed, mismatched, stale or
unstamped record.  Pass ``--allow-stale`` to downgrade stale and unstamped
records to warnings.

Performance history
-------------------
Every ``emit_bench_json`` call also appends one line to the append-only
``benchmarks/history.ndjson`` — bench name, its headline metric, the run
scale and the git sha — so the repo accumulates a perf timeline alongside
the latest snapshots.  ``--compare`` checks each current BENCH record
against the most recent *earlier* history entry of the same (name, scale)
and fails on any regression worse than 20 % (``--threshold`` to adjust);
the direction of "worse" is metric-aware (seconds/ratios should fall,
speedups/throughput should rise).

``--compare`` usage notes
-------------------------
* **Local, after rerunning a benchmark**: ``python
  scripts/check_bench_manifest.py --compare`` diffs the fresh BENCH record
  against its own committed history — run it *before* committing the new
  record to see whether the change is a regression or an improvement.
* **Against a scratch emission dir** (the CI docs job does this with
  ``REPRO_BENCH_OUT``): ``--compare --bench-dir "$RUNNER_TEMP/bench"``
  compares just-emitted smoke records against the timeline shipped in the
  checkout, catching regressions without touching the committed files.
* **Tuning sensitivity**: noisy shared runners may need ``--threshold
  0.35``; sub-20 % drifts are visible in the printed per-record deltas even
  when the check passes, so eyeball the output before raising the bar.
* **Greppable CI trail**: each compared record prints one
  ``ok/new/FAIL BENCH_<name>.json: <metric> old -> new (±x%)`` line, and
  the ``static-analysis`` job
  uploads ``lint-report.json`` (``repro lint --json``) as an artifact —
  together a CI run's perf and contract regressions are one ``grep`` away
  from the logs/artifacts, no local reproduction needed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: File name of the append-only perf timeline next to the BENCH records.
HISTORY_NAME = "history.ndjson"

#: Default regression threshold for ``--compare`` (fractional change).
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Matches the literal first argument of an emit_bench_json(...) call.
_EMIT_RE = re.compile(r"emit_bench_json\(\s*[\"']([A-Za-z0-9_.-]+)[\"']")

#: Headline-metric preference per BENCH payload, first match wins.  Kept in
#: sync (by the tier-1 tests) with the copy in ``benchmarks/_bench_utils.py``
#: — this script must stay importable without ``repro``/``numpy``.
KEY_METRIC_CANDIDATES = (
    "overhead_ratio",
    "speedup",
    "min_speedup",
    "trials_per_second",
    "campaign_seconds",
    "incremental_seconds",
    "day_seconds",
    "sweep_seconds",
    "engine_seconds",
    "total_seconds",
    "table_seconds",
    "opf_seconds",
    "redispatch_seconds",
    "elapsed_seconds",
)


def key_metric(record: dict) -> tuple[str, float] | None:
    """The headline (metric, value) of a BENCH payload, or ``None``."""
    for candidate in KEY_METRIC_CANDIDATES:
        value = record.get(candidate)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return candidate, float(value)
    return None


def lower_is_better(metric: str) -> bool:
    """Whether a smaller value of ``metric`` is an improvement."""
    if "speedup" in metric or metric == "trials_per_second":
        return False
    return metric.endswith("_seconds") or metric.endswith("_ratio")


def history_path(bench_dir: Path = BENCH_DIR) -> Path:
    return bench_dir / HISTORY_NAME


def read_history(bench_dir: Path = BENCH_DIR) -> list[dict]:
    """Parse the history timeline, skipping torn/corrupt lines."""
    entries: list[dict] = []
    try:
        raw = history_path(bench_dir).read_bytes()
    except OSError:
        return entries
    for line in raw.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break  # torn tail from an interrupted append
        try:
            entry = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(entry, dict) and "name" in entry and "value" in entry:
            entries.append(entry)
    return entries


def compare(
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    bench_dir: Path = BENCH_DIR,
) -> int:
    """Flag current BENCH records regressing vs their last history entry.

    Each ``BENCH_<name>.json`` is compared against the most recent history
    entry of the same (name, scale) that *predates* the record (each
    emission appends itself to the history, so the record's own entry is
    skipped by timestamp).  Returns non-zero when any metric moved more
    than ``threshold`` in its worse direction.
    """
    history = read_history(bench_dir)
    if not history:
        print(f"no history at {history_path(bench_dir)}; nothing to compare")
        return 0
    regressions: list[str] = []
    compared = 0
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        name = record.get("name")
        metric = key_metric(record)
        if not name or metric is None:
            continue
        metric_name, value = metric
        created = float(record.get("created_unix", 0.0))
        scale = record.get("scale")
        earlier = [
            entry
            for entry in history
            if entry.get("name") == name
            and entry.get("scale") == scale
            and entry.get("metric") == metric_name
            and float(entry.get("created_unix", 0.0)) < created
        ]
        if not earlier:
            print(f"new     {path.name}: {metric_name}={value:g} (no prior entry)")
            continue
        baseline = float(earlier[-1]["value"])
        compared += 1
        if baseline == 0.0:
            continue
        change = (value - baseline) / abs(baseline)
        worse = change if lower_is_better(metric_name) else -change
        arrow = f"{baseline:g} -> {value:g} ({change:+.1%})"
        if worse > threshold:
            regressions.append(
                f"{path.name}: {metric_name} regressed {arrow} "
                f"(threshold {threshold:.0%})"
            )
        else:
            print(f"ok      {path.name}: {metric_name} {arrow}")
    for message in regressions:
        print(f"FAIL    {message}", file=sys.stderr)
    if regressions:
        print(f"\n{len(regressions)} of {compared} compared benchmarks regressed",
              file=sys.stderr)
        return 1
    print(f"\nno regressions across {compared} compared benchmark(s)")
    return 0


def expected_records(bench_dir: Path = BENCH_DIR) -> dict[str, Path]:
    """Map BENCH record name -> the benchmark module that emits it."""
    expected: dict[str, Path] = {}
    for module in sorted(bench_dir.glob("bench_*.py")):
        for name in _EMIT_RE.findall(module.read_text()):
            expected[name] = module
    return expected


def source_sha256(module: Path) -> str:
    """SHA-256 of a benchmark module's source, as ``emit_bench_json`` stamps it."""
    return hashlib.sha256(module.read_bytes()).hexdigest()


def check(allow_stale: bool = False, bench_dir: Path = BENCH_DIR) -> int:
    expected = expected_records(bench_dir)
    if not expected:
        print(f"error: no emit_bench_json calls found under {bench_dir}",
              file=sys.stderr)
        return 2

    failures: list[str] = []
    warnings: list[str] = []
    for name, module in sorted(expected.items()):
        path = bench_dir / f"BENCH_{name}.json"
        if not path.exists():
            failures.append(
                f"missing {path.name} (emitted by {module.name}; run "
                f"PYTHONPATH=src python -m pytest benchmarks/{module.name} "
                "-p no:cacheprovider -o python_files='bench_*.py' "
                "-o python_functions='bench_*')"
            )
            continue
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"unreadable {path.name}: {exc}")
            continue
        if record.get("name") != name:
            failures.append(
                f"{path.name}: record name {record.get('name')!r} does not "
                f"match expected {name!r}"
            )
            continue
        created = record.get("created_unix")
        if not isinstance(created, (int, float)) or created <= 0:
            failures.append(f"{path.name}: missing/invalid created_unix stamp")
            continue
        driver_sha256 = record.get("driver_sha256")
        message = None
        if not driver_sha256:
            message = (
                f"{path.name}: unstamped — no driver_sha256 for {module.name}; "
                "regenerate it"
            )
        elif driver_sha256 != source_sha256(module):
            message = (
                f"{path.name}: stale — {module.name} changed since the record "
                "was written; regenerate it"
            )
        if message is not None:
            if allow_stale:
                warnings.append(message)
            else:
                failures.append(message)
            continue
        print(f"ok      BENCH_{name}.json ({module.name})")

    for message in warnings:
        print(f"warn    {message}")
    for message in failures:
        print(f"FAIL    {message}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} of {len(expected)} BENCH records failed",
              file=sys.stderr)
        return 1
    if warnings:
        print(f"\nall {len(expected)} BENCH records present; "
              f"{len(warnings)} stale or unstamped (allowed)")
    else:
        print(f"\nall {len(expected)} BENCH records present and fresh")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--allow-stale",
        action="store_true",
        help="warn (instead of fail) when a record is stale or unstamped "
        "(its driver_sha256 is missing or no longer matches its benchmark "
        "module's source)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="compare current BENCH records against the last history.ndjson "
        "entry of the same (name, scale) and fail on regressions",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="fractional regression threshold for --compare (default: 0.20)",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=BENCH_DIR,
        help="directory holding BENCH_*.json records (default: benchmarks/)",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(threshold=args.threshold, bench_dir=args.bench_dir)
    return check(allow_stale=args.allow_stale, bench_dir=args.bench_dir)


if __name__ == "__main__":
    raise SystemExit(main())

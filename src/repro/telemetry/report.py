"""Structured run reports (``telemetry.json``).

A run report is the merged, human-auditable outcome of one instrumented
invocation: the merged cross-process metrics snapshot, derived cache
hit/miss/eviction rates, throughput (trials/sec), per-shard wall times,
the skip/ingest/execute work partition, the environment stamp, and the
orchestrating process's span tree.  The orchestrator persists it as
``telemetry.json`` next to the campaign store manifest; ``repro telemetry
show`` and ``repro campaign status --telemetry`` render it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Mapping

from repro.telemetry.env import environment_info
from repro.telemetry.metrics import MetricsSnapshot

#: File name of the persisted run report (lives next to ``campaign.json``).
TELEMETRY_NAME = "telemetry.json"

#: Schema version of the report payload.
REPORT_SCHEMA_VERSION = 1


def cache_rates(snapshot: MetricsSnapshot | Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    """Per-cache hit/miss/eviction accounting derived from the counters.

    Understands the library's ``cache.<name>.{hits,misses,evictions}``
    naming scheme and computes each cache's hit rate; caches with zero
    traffic are omitted.
    """
    counters = (
        snapshot.counters
        if isinstance(snapshot, MetricsSnapshot)
        else dict(snapshot.get("counters", {}))
    )
    caches: dict[str, dict[str, Any]] = {}
    for key, value in counters.items():
        if not key.startswith("cache."):
            continue
        name, _, event = key[len("cache."):].rpartition(".")
        if event not in ("hits", "misses", "evictions") or not name:
            continue
        caches.setdefault(name, {"hits": 0, "misses": 0, "evictions": 0})[event] = value
    for stats in caches.values():
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = (stats["hits"] / lookups) if lookups else None
    return {name: caches[name] for name in sorted(caches)}


def build_report(
    snapshot: MetricsSnapshot,
    elapsed_seconds: float,
    executed: int = 0,
    skipped: int = 0,
    trials_executed: int = 0,
    shard_wall_seconds: Mapping[int, float] | None = None,
    spans: list[dict[str, Any]] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a run report from a merged snapshot plus run accounting."""
    elapsed = float(elapsed_seconds)
    report: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "created_unix": time.time(),
        "environment": environment_info(),
        "elapsed_seconds": elapsed,
        "partition": {
            "executed": int(executed),
            "skipped": int(skipped),
        },
        "throughput": {
            "trials_executed": int(trials_executed),
            "trials_per_second": (trials_executed / elapsed) if elapsed > 0 else None,
        },
        "caches": cache_rates(snapshot),
        "metrics": snapshot.to_dict(),
    }
    if shard_wall_seconds:
        report["shards"] = {
            "wall_seconds": {
                str(index): float(shard_wall_seconds[index])
                for index in sorted(shard_wall_seconds)
            }
        }
    if spans:
        report["spans"] = list(spans)
    if extra:
        report.update(dict(extra))
    return report


def telemetry_path(directory: str | Path) -> Path:
    """Where a store directory's run report lives."""
    return Path(directory) / TELEMETRY_NAME


def write_report(directory: str | Path, report: Mapping[str, Any]) -> Path:
    """Atomically persist ``report`` as ``telemetry.json`` in ``directory``."""
    path = telemetry_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".telemetry-", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_report(directory: str | Path) -> dict[str, Any] | None:
    """Load a store's persisted run report, or ``None`` if absent/corrupt."""
    try:
        payload = json.loads(telemetry_path(directory).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def load_report(directory: str | Path) -> dict[str, Any]:
    """Load a store's run report, or raise an actionable :class:`TelemetryError`.

    The CLI-facing sibling of :func:`read_report`: instead of collapsing
    every failure to ``None``, the error message says which store was
    inspected, what was expected there, and what went wrong — a missing
    file (telemetry was never on), unreadable bytes, truncated/invalid
    JSON, or a JSON document that is not a report object.
    """
    from repro.exceptions import TelemetryError

    path = telemetry_path(directory)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise TelemetryError(
            f"no telemetry report at {path} — expected the {TELEMETRY_NAME} "
            f"written by an instrumented run; re-run the campaign against "
            f"{Path(directory)} with --telemetry (or REPRO_TELEMETRY=1)"
        ) from None
    except OSError as error:
        raise TelemetryError(
            f"telemetry report at {path} is unreadable ({error}); re-run the "
            "campaign with --telemetry to rewrite it"
        ) from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        detail = "is empty" if not text.strip() else f"is not valid JSON ({error})"
        raise TelemetryError(
            f"telemetry report at {path} {detail} — likely truncated by a "
            "crash; re-run the campaign with --telemetry to rewrite it"
        ) from None
    if not isinstance(payload, dict):
        raise TelemetryError(
            f"telemetry report at {path} holds a JSON "
            f"{type(payload).__name__}, not a report object; re-run the "
            "campaign with --telemetry to rewrite it"
        )
    return payload


def _format_span(record: Mapping[str, Any], indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    attrs = record.get("attributes") or {}
    suffix = (" " + " ".join(f"{k}={v}" for k, v in attrs.items())) if attrs else ""
    lines.append(
        f"{pad}{record.get('name', '?')}: "
        f"{float(record.get('wall_seconds', 0.0)):.4f}s wall, "
        f"{float(record.get('cpu_seconds', 0.0)):.4f}s cpu{suffix}"
    )
    for child in record.get("children", ()):
        _format_span(child, indent + 1, lines)


def format_report(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of a run report for the CLI."""
    lines: list[str] = []
    elapsed = float(report.get("elapsed_seconds", 0.0))
    partition = report.get("partition", {})
    throughput = report.get("throughput", {})
    lines.append(
        f"run: {elapsed:.2f}s — executed {partition.get('executed', 0)}, "
        f"skipped {partition.get('skipped', 0)}"
    )
    tps = throughput.get("trials_per_second")
    lines.append(
        f"throughput: {throughput.get('trials_executed', 0)} trials"
        + (f", {tps:.1f} trials/sec" if tps else "")
    )
    shards = report.get("shards", {}).get("wall_seconds", {})
    if shards:
        shard_part = ", ".join(
            f"#{index}: {float(seconds):.2f}s" for index, seconds in shards.items()
        )
        lines.append(f"shard wall times: {shard_part}")
    caches = report.get("caches", {})
    for name, stats in caches.items():
        rate = stats.get("hit_rate")
        rate_str = f"{100.0 * rate:.1f}%" if rate is not None else "n/a"
        lines.append(
            f"cache {name}: {stats.get('hits', 0)} hits / "
            f"{stats.get('misses', 0)} misses / "
            f"{stats.get('evictions', 0)} evictions (hit rate {rate_str})"
        )
    counters = report.get("metrics", {}).get("counters", {})
    interesting = {
        k: v for k, v in counters.items() if not k.startswith("cache.")
    }
    if interesting:
        lines.append("counters:")
        for key in sorted(interesting):
            lines.append(f"  {key} = {interesting[key]}")
    env = report.get("environment", {})
    if env:
        lines.append(
            "environment: "
            + ", ".join(
                f"{k}={env[k]}"
                for k in ("repro", "python", "numpy", "scipy", "cpu_count")
                if k in env
            )
        )
    spans = report.get("spans")
    if spans:
        lines.append("spans:")
        for record in spans:
            _format_span(record, 1, lines)
    return "\n".join(lines)


__all__ = [
    "TELEMETRY_NAME",
    "REPORT_SCHEMA_VERSION",
    "cache_rates",
    "build_report",
    "telemetry_path",
    "write_report",
    "read_report",
    "load_report",
    "format_report",
]

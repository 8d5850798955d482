"""Persistent, crash-safe campaign result store.

A :class:`CampaignStore` is a directory holding everything a campaign has
produced::

    <store>/
    ├── campaign.json          # manifest: definition + plan hash
    ├── index.sqlite           # SQLite index keyed by spec content hash
    └── segments/
        ├── segment-000001.ndjson   # append-only result records
        └── segment-000002.ndjson   # (one new segment per run/resume)

The **segments are the source of truth**: each line is one completed
scenario (the :meth:`~repro.engine.results.ScenarioResult.to_dict` payload
plus the shard index), appended and flushed as soon as the scenario
finishes, never rewritten.  The **SQLite index is an accelerator** mapping
``spec_hash`` → (segment, byte offset) plus per-segment high-water marks;
it can always be rebuilt from the segments.

Crash safety follows from that split:

* a record is durable once its line (with trailing newline) hits the
  segment; the index entry may lag behind;
* on open, :meth:`CampaignStore.reconcile` scans every segment past its
  indexed high-water mark and indexes any complete records found there —
  recovering from a crash between the segment append and the index commit;
* a torn final line (the process died mid-write) simply never becomes a
  complete record: it is skipped, stays unindexed, and the scenario is
  re-executed on resume.  New runs append to a *fresh* segment, so the
  torn tail is never written after;
* a corrupt or missing ``index.sqlite`` is rebuilt from the segments.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

try:  # advisory single-writer locking (POSIX; absent on some platforms)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.engine.results import ScenarioResult
from repro.exceptions import ConfigurationError
from repro.telemetry import metrics as _metrics

#: Store layout names.
MANIFEST_NAME = "campaign.json"
INDEX_NAME = "index.sqlite"
SEGMENT_DIR = "segments"
SEGMENT_SUFFIX = ".ndjson"
LOCK_NAME = ".writer.lock"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    spec_hash   TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    segment     TEXT NOT NULL,
    offset      INTEGER NOT NULL,
    length      INTEGER NOT NULL,
    shard       INTEGER,
    n_trials    INTEGER NOT NULL,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS segments (
    segment       TEXT PRIMARY KEY,
    indexed_bytes INTEGER NOT NULL
);
"""


def spec_field(spec: Mapping[str, Any], path: str) -> Any:
    """Look up a dotted path (``"mtd.gamma_threshold"``) in a spec dict."""
    obj: Any = spec
    for part in path.split("."):
        if not isinstance(obj, Mapping) or part not in obj:
            raise KeyError(path)
        obj = obj[part]
    return obj


class CampaignStore:
    """Append-only ndjson segments with a SQLite index, keyed by spec hash.

    Parameters
    ----------
    directory:
        Store root; created (with parents) if missing.  Opening an existing
        store reconciles the index with the segments on disk, recovering
        any records a previous crash left unindexed.
    create:
        Pass ``False`` to require an existing store — a directory holding a
        manifest or segments.  Read-only commands (``status``/``query``)
        use this so a mistyped path fails fast instead of scaffolding store
        files into an arbitrary (or nonexistent) directory.
    """

    def __init__(self, directory: str | Path, create: bool = True) -> None:
        self._directory = Path(directory)
        self._segment_dir = self._directory / SEGMENT_DIR
        if not create and not (
            self._segment_dir.is_dir() or (self._directory / MANIFEST_NAME).exists()
        ):
            raise ConfigurationError(f"no campaign store at {self._directory}")
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        self._connection = self._open_index()
        self._segment_handle = None  # lazily opened per-instance segment
        self._segment_name: str | None = None
        self._lock_handle = None  # held from first append until close
        self.recovered_records = 0
        self.skipped_lines = 0
        self.reconcile()

    # ------------------------------------------------------------------
    # index bootstrap / recovery
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """Root directory of the store."""
        return self._directory

    @property
    def index_path(self) -> Path:
        return self._directory / INDEX_NAME

    @property
    def progress_path(self) -> Path:
        """Where this store's live progress stream lives (may not exist)."""
        from repro.telemetry.progress import progress_path

        return progress_path(self._directory)

    def _open_index(self) -> sqlite3.Connection:
        """Connect to the index, discarding it if unreadable (it is derived
        data — the segments carry the truth)."""
        connection = None
        try:
            connection = self._connect()
            return connection
        except sqlite3.DatabaseError:
            if connection is not None:
                try:
                    connection.close()
                except sqlite3.Error:
                    pass
            self.index_path.unlink(missing_ok=True)
            return self._connect()

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.index_path)
        # Readers (status/query) may reconcile while a writer commits
        # appends; let SQLite wait briefly instead of surfacing transient
        # "database is locked" errors.
        connection.execute("PRAGMA busy_timeout = 5000")
        connection.executescript(_SCHEMA)
        connection.commit()
        return connection

    def _segment_files(self) -> list[Path]:
        return sorted(self._segment_dir.glob(f"*{SEGMENT_SUFFIX}"))

    def reconcile(self) -> int:
        """Index every complete segment record past the indexed high-water
        marks; returns the number of records recovered.

        Handles all three crash shapes: records appended but never indexed,
        a torn (incomplete) final line, and corrupt lines in the middle of
        a segment (skipped, counted in ``skipped_lines``).  A segment
        *shorter* than its recorded high-water mark (external truncation)
        is re-indexed from scratch.
        """
        recovered = 0
        marks = dict(
            self._connection.execute("SELECT segment, indexed_bytes FROM segments")
        )
        # Segments are the source of truth: rows for segment files that no
        # longer exist are dropped, so deleting a segment is a supported way
        # to force its scenarios to re-execute.
        existing = {path.name for path in self._segment_files()}
        placeholders = ",".join("?" * len(existing))
        for table in ("results", "segments"):
            self._connection.execute(
                f"DELETE FROM {table} WHERE segment NOT IN ({placeholders})"
                if existing
                else f"DELETE FROM {table}",
                tuple(existing),
            )
        for path in self._segment_files():
            name = path.name
            size = path.stat().st_size
            mark = int(marks.get(name, 0))
            if size < mark:
                self._connection.execute(
                    "DELETE FROM results WHERE segment = ?", (name,)
                )
                mark = 0
            if size == mark:
                continue
            recovered += self._index_segment_tail(path, mark)
        self._connection.commit()
        self.recovered_records += recovered
        return recovered

    def _index_segment_tail(self, path: Path, start: int) -> int:
        """Index complete records of ``path`` from byte ``start`` onward."""
        name = path.name
        recovered = 0
        with path.open("rb") as handle:
            handle.seek(start)
            offset = start
            while True:
                line = handle.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    break  # torn tail: incomplete record, leave unindexed
                record = self._parse_record(line)
                if record is None:
                    self.skipped_lines += 1
                else:
                    self._index_record(record, name, offset, len(line))
                    recovered += 1
                offset += len(line)
        self._connection.execute(
            "INSERT OR REPLACE INTO segments (segment, indexed_bytes) VALUES (?, ?)",
            (name, offset),
        )
        return recovered

    @staticmethod
    def _parse_record(line: bytes) -> dict[str, Any] | None:
        """Parse one segment line; ``None`` for corrupt/foreign content."""
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or "spec_hash" not in record:
            return None
        if "spec" not in record or "trials" not in record:
            return None
        return record

    def _index_record(
        self, record: Mapping[str, Any], segment: str, offset: int, length: int
    ) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO results "
            "(spec_hash, name, segment, offset, length, shard, n_trials, created_unix) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record["spec_hash"],
                str(record.get("spec", {}).get("name", "")),
                segment,
                offset,
                length,
                record.get("shard"),
                len(record.get("trials", ())),
                float(record.get("created_unix", time.time())),
            ),
        )

    def rebuild_index(self) -> int:
        """Drop the index and rebuild it from the segments; returns the
        number of records indexed."""
        self._connection.execute("DELETE FROM results")
        self._connection.execute("DELETE FROM segments")
        self._connection.commit()
        return self.reconcile()

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def _next_segment_name(self) -> str:
        numbers = [0]
        for path in self._segment_files():
            stem = path.name[: -len(SEGMENT_SUFFIX)]
            try:
                numbers.append(int(stem.rsplit("-", 1)[-1]))
            except ValueError:
                continue
        return f"segment-{max(numbers) + 1:06d}{SEGMENT_SUFFIX}"

    def _acquire_writer_lock(self) -> None:
        """Become the store's single writer (advisory ``flock``).

        Concurrent writers would race on segment numbering and index
        offsets, so a second live writer is rejected outright; the lock
        dies with its process, so a ``kill -9`` never wedges the store.
        """
        if fcntl is None or self._lock_handle is not None:
            return
        handle = (self._directory / LOCK_NAME).open("w")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise ConfigurationError(
                f"campaign store {self._directory} is being written by another "
                "process; wait for it to finish (the lock clears when it exits)"
            ) from None
        self._lock_handle = handle

    def _segment_for_append(self):
        """The store instance's private segment, opened on first append.

        Every store instance (hence every run/resume generation) writes a
        fresh segment, so old segments — including any torn tail a crash
        left behind — are never appended to.
        """
        if self._segment_handle is None:
            self._acquire_writer_lock()
            self._segment_name = self._next_segment_name()
            self._segment_handle = (self._segment_dir / self._segment_name).open("ab")
        return self._segment_handle

    def append(self, result: ScenarioResult, shard: int | None = None) -> str:
        """Persist one scenario result; returns its spec hash.

        The record is durable (flushed and fsynced) before the index entry
        is committed, so a crash can only ever lose index entries — which
        :meth:`reconcile` recovers — never result data.
        """
        record = result.to_dict()
        record["shard"] = shard
        record["created_unix"] = time.time()
        line = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode(
            "utf-8"
        )
        handle = self._segment_for_append()
        offset = handle.tell()
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
        self._index_record(record, self._segment_name, offset, len(line))
        self._connection.execute(
            "INSERT OR REPLACE INTO segments (segment, indexed_bytes) VALUES (?, ?)",
            (self._segment_name, offset + len(line)),
        )
        self._connection.commit()
        _metrics.counter("store.appends")
        _metrics.counter("store.bytes_written", len(line))
        return record["spec_hash"]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __contains__(self, spec_hash: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM results WHERE spec_hash = ?", (spec_hash,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        (count,) = self._connection.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def completed_hashes(self) -> set[str]:
        """Spec hashes of every stored scenario."""
        return {
            row[0]
            for row in self._connection.execute("SELECT spec_hash FROM results")
        }

    def _read_record(self, segment: str, offset: int, length: int) -> dict[str, Any]:
        path = self._segment_dir / segment
        with path.open("rb") as handle:
            handle.seek(offset)
            line = handle.read(length)
        record = self._parse_record(line)
        if record is None:
            raise ConfigurationError(
                f"segment record at {segment}:{offset} is unreadable; "
                "run rebuild_index() to re-derive the index"
            )
        return record

    def get(self, spec_hash: str) -> ScenarioResult | None:
        """Load the stored result of one scenario, or ``None`` if absent."""
        row = self._connection.execute(
            "SELECT segment, offset, length FROM results WHERE spec_hash = ?",
            (spec_hash,),
        ).fetchone()
        if row is None:
            return None
        record = self._read_record(*row)
        return ScenarioResult.from_dict(record, from_cache=True)

    def records(self) -> Iterator[dict[str, Any]]:
        """Every stored record (raw dicts), in insertion order.

        Insertion order is segment-sequential in the common case, so one
        file handle is kept open per run of consecutive same-segment rows
        instead of re-opening the segment for every record.
        """
        rows = self._connection.execute(
            "SELECT segment, offset, length FROM results ORDER BY rowid"
        ).fetchall()
        open_segment: str | None = None
        handle = None
        try:
            for segment, offset, length in rows:
                if segment != open_segment:
                    if handle is not None:
                        handle.close()
                    handle = (self._segment_dir / segment).open("rb")
                    open_segment = segment
                handle.seek(offset)
                line = handle.read(length)
                record = self._parse_record(line)
                if record is None:
                    raise ConfigurationError(
                        f"segment record at {segment}:{offset} is unreadable; "
                        "run rebuild_index() to re-derive the index"
                    )
                yield record
        finally:
            if handle is not None:
                handle.close()

    def results(self) -> Iterator[ScenarioResult]:
        """Every stored :class:`ScenarioResult`, in insertion order."""
        for record in self.records():
            yield ScenarioResult.from_dict(record, from_cache=True)

    def stats(self) -> dict[str, int]:
        """Entry/segment counts plus recovery accounting of this instance."""
        return {
            "entries": len(self),
            "segments": len(self._segment_files()),
            "recovered_records": self.recovered_records,
            "skipped_lines": self.skipped_lines,
        }

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self._directory / MANIFEST_NAME

    def read_manifest(self) -> dict[str, Any] | None:
        """The stored campaign manifest, or ``None`` for a fresh store."""
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def write_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Atomically persist the campaign manifest, stamped ``created_unix``.

        The stamp is bookkeeping like the records' own: never part of a
        spec hash or a result.
        """
        stamped = {**manifest, "created_unix": time.time()}
        fd, tmp = tempfile.mkstemp(prefix=".manifest-", suffix=".tmp", dir=self._directory)
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(stamped, handle, indent=2, sort_keys=True)
            os.replace(tmp, self.manifest_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def release_writer(self) -> None:
        """Close the segment handle and release the writer lock.

        Called by the orchestrator when a run finishes so the store can be
        written again (by this process or another) without waiting for
        garbage collection; reads stay available, and a later append simply
        re-acquires the lock and opens a fresh segment.
        """
        if self._segment_handle is not None:
            self._segment_handle.close()
            self._segment_handle = None
            self._segment_name = None
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd releases the flock
            self._lock_handle = None

    def close(self) -> None:
        """Flush and close the segment handle, writer lock and index."""
        self.release_writer()
        self._connection.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "CampaignStore",
    "spec_field",
    "MANIFEST_NAME",
    "INDEX_NAME",
    "SEGMENT_DIR",
]

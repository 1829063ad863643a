"""Shard journal: crash-safe resumable runs under a run directory.

A *run directory* records everything needed to resume an interrupted
generation::

    <run_dir>/
      meta.json         # identity of the run (seed, config digest, ...)
      journal.jsonl     # one line per completed shard (append-only)
      shards/<key>-<digest>.pkl  # the shard's pickled payload (atomic write)
      run_report.json   # written by the CLI after the run

Shard payloads are written atomically *before* the journal line is
appended (and the journal append is flushed + fsynced), so a crash at
any point leaves either a fully recorded shard or no record at all — a
truncated trailing journal line is tolerated and ignored on load.

``meta.json`` pins the run's identity: resuming with a different seed,
config or inventory raises :class:`JournalError` instead of
silently splicing incompatible shards together.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import re
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    fs_fault_hook,
)

__all__ = ["ShardJournal", "JournalError"]

PathLike = Union[str, Path]

_SAFE_KEY = re.compile(r"[^A-Za-z0-9._-]+")


class JournalError(RuntimeError):
    """The run directory is unusable (mismatched identity, corrupt shard)."""


def _payload_name(key: str) -> str:
    """Unique, filesystem-safe payload filename for a shard key.

    Sanitizing alone can collide (``a/b`` and ``a_b`` both sanitize to
    ``a_b``), so a short digest of the *raw* key disambiguates.
    """
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:8]
    return f"{_SAFE_KEY.sub('_', key)}-{digest}.pkl"


class ShardJournal:
    """Append-only journal of completed shards in a run directory.

    Parameters
    ----------
    run_dir:
        The run directory; created if missing.
    meta:
        Identity of the run.  On a fresh journal it is written to
        ``meta.json``; on ``resume=True`` it must match the stored one.
    resume:
        Resume an existing run (load its completed shards) instead of
        starting fresh (which clears any previous journal).
    """

    def __init__(
        self,
        run_dir: PathLike,
        meta: Optional[Dict[str, Any]] = None,
        resume: bool = False,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.meta_path = self.run_dir / "meta.json"
        self.journal_path = self.run_dir / "journal.jsonl"
        self.shards_dir = self.run_dir / "shards"
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.shards_dir.mkdir(exist_ok=True)
        if resume:
            if not self.meta_path.exists():
                raise JournalError(
                    f"cannot resume: {self.meta_path} does not exist "
                    "(was this run started with --run-dir?)"
                )
            stored = json.loads(self.meta_path.read_text(encoding="utf-8"))
            if meta is not None and stored != meta:
                changed = sorted(
                    k for k in set(stored) | set(meta)
                    if stored.get(k) != meta.get(k)
                )
                raise JournalError(
                    f"cannot resume {self.run_dir}: run identity changed "
                    f"(fields: {', '.join(changed)}); start a fresh run "
                    "directory instead"
                )
            self.meta = stored
            self._load_entries()
        else:
            # Invalidate the previous run *before* establishing the new
            # identity: a crash between the two steps then leaves either
            # the old consistent state or a journal-less directory —
            # never a fresh meta.json alongside an older run's journal,
            # which a later --resume would happily splice together.
            if self.journal_path.exists():
                self.journal_path.unlink()
            for stale in self.shards_dir.glob("*.pkl"):
                with contextlib.suppress(OSError):
                    stale.unlink()
            self.meta = dict(meta or {})
            atomic_write_json(self.meta_path, self.meta)

    # -- loading -------------------------------------------------------

    def _load_entries(self) -> None:
        if not self.journal_path.exists():
            return
        with self.journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append leaves a truncated final line;
                    # that shard simply regenerates.
                    continue
                if isinstance(entry, dict) and "shard" in entry:
                    self._entries[entry["shard"]] = entry

    # -- queries -------------------------------------------------------

    @property
    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Journal entries by shard key."""
        return dict(self._entries)

    def has(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def load(self, key: str) -> Any:
        """Unpickle a completed shard's payload, verifying its digest."""
        entry = self._entries[key]
        path = self.shards_dir / entry["file"]
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise JournalError(
                f"shard {key}: payload {path} unreadable: {exc}"
            ) from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry.get("sha256"):
            raise JournalError(
                f"shard {key}: payload {path} corrupt "
                f"(sha256 {digest[:12]}... != journal {str(entry.get('sha256'))[:12]}...)"
            )
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise JournalError(
                f"shard {key}: payload {path} failed to unpickle: {exc}"
            ) from exc

    # -- recording -----------------------------------------------------

    def record(
        self, key: str, payload: Any, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        """Durably record a completed shard (payload first, then journal)."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        file_name = _payload_name(key)
        atomic_write_bytes(self.shards_dir / file_name, blob)
        entry: Dict[str, Any] = {
            "shard": key,
            "file": file_name,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
        }
        if extra:
            entry.update(extra)
        with self.journal_path.open("a+", encoding="utf-8") as handle:
            # Self-heal a torn tail: a crash mid-append (torn write, an
            # ENOSPC that landed half a line) leaves the file without a
            # trailing newline; appending straight after it would glue
            # this entry onto the garbage and lose *both* lines.
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(handle.tell() - 1)
                if handle.read(1) != "\n":
                    handle.write("\n")
            fs_fault_hook(
                "journal.append",
                self.journal_path,
                write=handle.write,
                data=json.dumps(entry, sort_keys=True) + "\n",
            )
            handle.flush()
            os.fsync(handle.fileno())
        self._entries[key] = entry

    # -- verification --------------------------------------------------

    def verify(self) -> list:
        """Deep-check meta/journal/payload consistency; list of problems.

        Every journal entry's payload file must exist and match its
        recorded sha256, and ``meta.json`` must still parse and match
        the identity this journal was opened with.  An *orphan* payload
        (payload file with no journal line — the signature of a crash
        between the payload write and the journal append) is reported
        as recoverable, prefixed ``orphan:``, because a resume simply
        regenerates and overwrites it; callers that want a strict check
        can treat any non-empty return as a failure.
        """
        problems = []
        try:
            stored = json.loads(self.meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"meta.json unreadable: {type(exc).__name__}: {exc}")
            stored = None
        if stored is not None and self.meta and stored != self.meta:
            problems.append("meta.json does not match this journal's identity")
        recorded_files = set()
        for key, entry in sorted(self._entries.items()):
            path = self.shards_dir / entry["file"]
            recorded_files.add(entry["file"])
            try:
                blob = path.read_bytes()
            except OSError as exc:
                problems.append(
                    f"shard {key}: payload missing ({type(exc).__name__})"
                )
                continue
            digest = hashlib.sha256(blob).hexdigest()
            if digest != entry.get("sha256"):
                problems.append(
                    f"shard {key}: payload sha256 mismatch "
                    f"({digest[:12]}... != {str(entry.get('sha256'))[:12]}...)"
                )
            elif entry.get("bytes") not in (None, len(blob)):
                problems.append(
                    f"shard {key}: payload is {len(blob)} bytes, journal "
                    f"recorded {entry.get('bytes')}"
                )
        for stray in sorted(self.shards_dir.glob("*.pkl")):
            if stray.name not in recorded_files:
                problems.append(f"orphan: payload {stray.name} has no journal entry")
        return problems

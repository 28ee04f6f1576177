"""Content-addressed result cache: disk store with an in-memory LRU front.

Layout: ``<root>/<fp[:2]>/<fp>.json`` — one JSON document per job
fingerprint, fanned out over 256 subdirectories so a directory never
holds millions of entries.  Each document carries the cache format
version; a version bump makes every old entry unreadable (and the
engine-version component of the fingerprint already re-keys results
whenever simulation semantics change, see
:mod:`repro.jobs.fingerprint`).

The LRU front bounds memory, not correctness: an eviction only costs a
disk read on the next hit.  Writes go through a same-directory temp
file + ``os.replace`` so a crashed writer can never leave a torn entry
for a concurrent reader.

A disk entry that exists but cannot be decoded (truncated JSON, a
mismatched fingerprint, a torn write from a foreign tool) is
*quarantined*: moved to ``<root>/corrupt/`` so it never poisons another
read, counted in :meth:`ResultCache.stats`, and treated as a miss — the
job simply re-runs.

Only *successful* outcomes (complete or partial simulations) are
cached; a failed job (``error`` set) is always retried next time.

One cache serves every thread of a ``vppb serve`` process, so a lock
guards the LRU front and the counters; disk reads and writes run
outside it (the atomic rename already makes them safe to overlap).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from repro.jobs.model import JobOutcome

__all__ = ["CACHE_FORMAT_VERSION", "ResultCache", "default_cache_dir"]

#: Version of the on-disk entry format.  Bump when the JSON layout of an
#: entry changes; readers ignore entries written under any other version.
CACHE_FORMAT_VERSION = 1


def default_cache_dir() -> Path:
    """``$VPPB_CACHE_DIR``, else ``$XDG_CACHE_HOME/vppb``, else ``~/.cache/vppb``."""
    env = os.environ.get("VPPB_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "vppb"


class ResultCache:
    """Job-outcome store keyed by job fingerprint.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  ``None`` makes the
        cache memory-only — useful for tests and for callers that want
        request-scoped dedup without touching disk.
    max_memory_entries:
        Size of the LRU front.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        *,
        max_memory_entries: int = 4096,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError(f"max_memory_entries must be >= 1, got {max_memory_entries}")
        self.root = Path(root) if root is not None else None
        self.max_memory_entries = max_memory_entries
        self._lru: "OrderedDict[str, JobOutcome]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_quarantined = 0

    # ------------------------------------------------------------------

    def _path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[JobOutcome]:
        """The cached outcome for *fingerprint*, or None (counted)."""
        with self._lock:
            cached = self._lru.get(fingerprint)
            if cached is not None:
                self._lru.move_to_end(fingerprint)
                self.hits += 1
                return cached
        entry = self._read_disk(fingerprint) if self.root is not None else None
        with self._lock:
            if entry is None:
                self.misses += 1
                return None
            self._remember(fingerprint, entry)
            self.hits += 1
            return entry

    def put(self, outcome: JobOutcome) -> None:
        """Store a successful outcome (failed outcomes are not cached)."""
        if not outcome.ok:
            return
        with self._lock:
            self.stores += 1
            self._remember(outcome.fingerprint, outcome)
        if self.root is None:
            return
        path = self._path_for(outcome.fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format_version": CACHE_FORMAT_VERSION,
            "outcome": outcome.to_dict(),
        }
        # atomic publish: a reader sees the old entry or the new one,
        # never a partial write
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------

    def _read_disk(self, fingerprint: str) -> Optional[JobOutcome]:
        path = self._path_for(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError:
            return None  # plain miss: no entry
        except ValueError:
            self._quarantine(path, "undecodable JSON")
            return None
        if not isinstance(document, dict):
            self._quarantine(path, "entry is not a JSON object")
            return None
        if document.get("format_version") != CACHE_FORMAT_VERSION:
            return None  # old format: ignorable, not damage
        try:
            outcome = JobOutcome.from_dict(document["outcome"], from_cache=True)
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, "entry does not decode to a JobOutcome")
            return None
        if outcome.fingerprint != fingerprint:
            self._quarantine(path, "fingerprint mismatch (misplaced entry)")
            return None
        return outcome

    def _quarantine(self, path: Path, why: str) -> None:
        """Move a damaged entry aside so it is diagnosed once, not re-read."""
        dest_dir = self.root / "corrupt"
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / path.name)
        except OSError:
            # a concurrent reader may have quarantined it first; losing
            # the race (or an unwritable cache) must still read as a miss
            pass
        with self._lock:
            self.corrupt_quarantined += 1

    def flush(self) -> int:
        """Persist every in-memory entry missing from disk; return count.

        Normal ``put`` writes through immediately, so this only writes
        entries the disk lost underneath us (a cleaned cache directory,
        a quarantined entry whose job later succeeded elsewhere).  The
        graceful-shutdown path calls it so a drained service leaves a
        complete cache behind.  Memory-only caches flush nothing.
        """
        if self.root is None:
            return 0
        written = 0
        with self._lock:
            entries = list(self._lru.items())
        for fingerprint, outcome in entries:
            if self._path_for(fingerprint).exists():
                continue
            self.put(outcome)
            written += 1
        return written

    def _remember(self, fingerprint: str, outcome: JobOutcome) -> None:
        # called with the lock held.  Cached reads must report
        # from_cache=True even when the entry was populated by this
        # process's own put()
        self._lru[fingerprint] = (
            outcome if outcome.from_cache else JobOutcome.from_dict(
                outcome.to_dict(), from_cache=True
            )
        )
        self._lru.move_to_end(fingerprint)
        while len(self._lru) > self.max_memory_entries:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "hit_rate": round(self.hit_rate, 4),
                "memory_entries": len(self._lru),
                "persistent": self.root is not None,
                "corrupt_quarantined": self.corrupt_quarantined,
            }

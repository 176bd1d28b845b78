"""Content-addressed on-disk result cache.

Layout (two-level fan-out to keep directories small)::

    <cache_dir>/
        ab/
            abcdef....pkl        # sha256(RunSpec) -> pickled payload

Each entry holds ``{"format": .., "digest": .., "spec": <spec dict>,
"run": <BenchmarkRun>}`` — the spec dict rides along so entries stay
inspectable without reverse-hashing.  Writes are atomic (temp file +
``os.replace``), so a killed run never leaves a half-written entry.
Corrupted or stale-format entries are deleted on load and reported as a
:class:`CacheCorruption` so the engine can count and transparently
re-execute them.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Tuple

__all__ = ["CacheStats", "ResultCache", "CacheCorruption", "CACHE_FORMAT",
           "atomic_write"]

#: bump when the pickled payload layout changes
CACHE_FORMAT = 1


def atomic_write(path: Path, dump: Callable[[IO], None],
                 binary: bool = False) -> None:
    """Write ``path`` through ``dump(fh)`` on a temp file + ``os.replace``.

    Readers see the old file or the new one, never a torn write; a
    failed ``dump`` leaves no temp file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            dump(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CacheCorruption(Exception):
    """A cache entry existed but could not be loaded (now deleted)."""


@dataclass
class CacheStats:
    """What ``repro-sim cache stats`` reports about one cache root."""

    entries: int = 0
    total_bytes: int = 0
    oldest: Optional[float] = None   # mtimes (epoch seconds)
    newest: Optional[float] = None
    #: leftover ``*.tmp`` files from killed writes (safe to delete)
    stale_tmp: int = 0

    def describe(self, root: Path) -> str:
        lines = [f"cache root : {root}",
                 f"entries    : {self.entries}",
                 f"size       : {self.total_bytes / 1e6:.2f} MB"]
        if self.entries:
            fmt = "%Y-%m-%d %H:%M:%S"
            lines.append(f"oldest     : "
                         f"{time.strftime(fmt, time.localtime(self.oldest))}")
            lines.append(f"newest     : "
                         f"{time.strftime(fmt, time.localtime(self.newest))}")
        if self.stale_tmp:
            lines.append(f"stale tmp  : {self.stale_tmp} "
                         f"(interrupted writes; gc removes them)")
        return "\n".join(lines)


class ResultCache:
    """Spec-digest -> pickled result store under one root directory."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        """On-disk location of ``digest``'s entry."""
        return self.root / digest[:2] / f"{digest}.pkl"

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def load(self, digest: str) -> Optional[Any]:
        """The cached run for ``digest``.

        Returns ``None`` on a miss; raises :class:`CacheCorruption` (after
        deleting the offending file) when the entry exists but cannot be
        unpickled, fails its integrity checks, or predates the current
        payload format.
        """
        path = self.path_for(digest)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (payload["format"] != CACHE_FORMAT
                    or payload["digest"] != digest):
                raise ValueError("format or digest mismatch")
            return payload["run"]
        except Exception as exc:
            path.unlink(missing_ok=True)
            raise CacheCorruption(f"dropped unreadable cache entry "
                                  f"{path.name}: {exc}") from exc

    def store(self, digest: str, run: Any,
              spec_dict: Optional[Dict] = None) -> Path:
        """Atomically persist ``run`` under ``digest``."""
        path = self.path_for(digest)
        payload = {"format": CACHE_FORMAT, "digest": digest,
                   "spec": spec_dict, "run": run}
        atomic_write(path, lambda fh: pickle.dump(
            payload, fh, protocol=pickle.HIGHEST_PROTOCOL), binary=True)
        return path

    def missing(self, digests) -> List[str]:
        """The digests with no cache entry, deduplicated, in order.

        Journal recovery and the chaos harness use this to answer "which
        specs never landed" without loading (or trusting) the payloads.
        """
        return [digest for digest in dict.fromkeys(digests)
                if not self.path_for(digest).exists()]

    def digests(self):
        """Iterate the digests currently stored (campaign resume audits)."""
        if not self.root.exists():
            return
        for entry in sorted(self.root.glob("*/*.pkl")):
            yield entry.stem

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        if not self.root.exists():
            return 0
        for entry in self.root.glob("*/*.pkl"):
            entry.unlink(missing_ok=True)
            n += 1
        return n

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    # ------------------------------------------------------------------ #
    # operability (the ``repro-sim cache`` subcommand)
    # ------------------------------------------------------------------ #
    def stats(self) -> CacheStats:
        """Entry count, byte size, age range and stale temp files."""
        stats = CacheStats()
        if not self.root.exists():
            return stats
        for entry in self.root.glob("*/*.pkl"):
            try:
                st = entry.stat()
            except OSError:
                continue  # raced with a concurrent gc/clear
            stats.entries += 1
            stats.total_bytes += st.st_size
            if stats.oldest is None or st.st_mtime < stats.oldest:
                stats.oldest = st.st_mtime
            if stats.newest is None or st.st_mtime > stats.newest:
                stats.newest = st.st_mtime
        stats.stale_tmp = sum(1 for _ in self.root.glob("*/*.tmp"))
        return stats

    def verify(self) -> Tuple[int, List[str]]:
        """Load-check every entry; corrupt ones are deleted and reported.

        Returns ``(ok_count, corrupt_messages)``.  Uses the same
        integrity checks as :meth:`load`, so anything ``verify`` passes
        an engine will accept.
        """
        ok = 0
        corrupt: List[str] = []
        for digest in list(self.digests()):
            try:
                if self.load(digest) is not None:
                    ok += 1
            except CacheCorruption as exc:
                corrupt.append(str(exc))
        return ok, corrupt

    def gc(self, older_than_days: float) -> Tuple[int, int]:
        """Delete entries older than ``older_than_days`` and stale temp
        files; returns ``(entries_removed, tmp_removed)``."""
        if older_than_days < 0:
            raise ValueError("older_than_days must be >= 0")
        removed = 0
        cutoff = time.time() - older_than_days * 86400.0
        if not self.root.exists():
            return 0, 0
        for entry in self.root.glob("*/*.pkl"):
            try:
                if entry.stat().st_mtime < cutoff:
                    entry.unlink(missing_ok=True)
                    removed += 1
            except OSError:
                continue
        tmp_removed = 0
        for leftover in self.root.glob("*/*.tmp"):
            leftover.unlink(missing_ok=True)
            tmp_removed += 1
        for bucket in self.root.glob("*"):
            if bucket.is_dir():
                try:
                    bucket.rmdir()  # only succeeds when empty
                except OSError:
                    pass
        return removed, tmp_removed

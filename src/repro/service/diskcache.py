"""Content-addressed on-disk cache with LRU eviction.

The persistent half of the analysis service: engines spill their parse /
summary / dependence caches here (via
:class:`~repro.service.persist.PersistentStore`) so a reopened session
starts warm.  Design points, each load-bearing:

* **Content addressing** — keys are content digests (span digests,
  unit-record, program and memo-segment digests), so entries are valid
  forever: a stale entry can never be *returned* for current content,
  only missed.  Records are never rewritten in place, so processes
  sharing one directory need no lock.
* **Format-version stamp** — every record embeds
  :data:`FORMAT_VERSION` plus its own kind and key; a version bump, a
  truncated write or a record filed under the wrong digest all fail
  validation and read as a miss.
* **Atomic writes** — records are written to a temp file in the target
  directory and ``os.replace``d into place, so readers never observe a
  half-written record even mid-crash.
* **Graceful degradation** — *any* failure to read, validate or
  unpickle logs a warning, deletes the offending file where possible,
  and returns a miss; persistence problems degrade to a cold analysis,
  never to a crash or a stale result.
* **Size-bounded LRU** — when a running size estimate says the store
  outgrew ``max_bytes``, a full walk evicts least-recently-used records
  (file mtime, refreshed on every hit) until the total fits again; the
  estimate keeps the common under-budget write O(1) instead of
  O(store).

Counters (``disk.hit`` / ``disk.miss`` / ``disk.write`` /
``disk.write_bytes`` / ``disk.evict`` / ``disk.error``) feed the attached
engine stats.
"""

from __future__ import annotations

import gc
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Set

log = logging.getLogger(__name__)

#: Bump when any pickled payload's schema changes; old records then
#: read as misses instead of poisoning newer code.
#: v2: hot-path overhaul — UnitAnalysis gained stmt_index, the tester
#: gained memo counters, the graph gained secondary indices.
#: v3: warm-reuse overhaul — span records carry a binding guard instead
#: of a whole-program kinds map, new ``usum`` (per-unit summary) and
#: ``memo`` (shared pair-test memo) record kinds, UnitAnalysis gained
#: memo_export and the tester gained shared-memo counters.
#: v4: SectionInfo carries the unit's formal signature (``formals``),
#: which early cutoff relies on; records without it must not load.
#: v5: UnitAnalysis lost memo_export and SharedPairMemo its
#: pending/absorbed counter split (engines no longer ship work to
#: worker processes).
#: v6: dependence results changed (weak-zero SIV with the index on the
#: sink side, uncapped loop-independent scalar edges), so persisted
#: graphs and shared-memo verdicts from v5 must not replay; the tester
#: lost its local memo.
#: v7: the program record became a manifest naming one ``unit`` record
#: per span (the span's bound units with their dependence entries).
#: v8: the shared memo became immutable content-addressed segments
#: instead of one singleton record.
#: v9: UnitAnalysis keeps live_out instead of the CFG and the def-use
#: solution, and no per-pair test results; the dependence graph keeps
#: four indices and no id counter (an edge's id is its position in
#: ``edges``).
#: v10: unit records carry their units' summaries, and the program
#: manifest no longer does.
#: v11: affine forms hold integral values as ``int`` (section summaries
#: in ``usum`` and ``unit`` records), and dependence edges pickle as
#: their constructor arguments instead of their ``__dict__``.
#: v12: span records hold the bound units alone and unit records carry
#: no binding guard (binding reads one unit, so no guard is needed).
FORMAT_VERSION = 12

_MAGIC = "repro-cache"


def _unpickle(blob: bytes) -> object:
    """``pickle.loads`` with the cyclic collector paused.

    A record is one graph of live objects; the collections its
    allocations would trigger find no garbage in it but traverse every
    older object, which in a server holding other sessions' analyses
    cost more than the load itself."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(blob)
    finally:
        if enabled:
            gc.enable()


class DiskCache:
    """A directory of pickled records addressed by ``(kind, key)``."""

    def __init__(
        self,
        root,
        max_bytes: int = 256 * 1024 * 1024,
        stats=None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stats = stats
        #: Running size estimate (None until the first write walks the
        #: store once); keeps the per-write eviction check O(1).
        self._approx_bytes: Optional[int] = None
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def _bump(self, name: str, n: float = 1) -> None:
        if self.stats is not None:
            self.stats.bump(name, n)

    # ------------------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[object]:
        """The payload stored under ``(kind, key)``, or ``None``.

        Every failure mode — missing file, truncation, unpickling error,
        version or address mismatch — is a logged miss, never an
        exception.
        """

        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._bump("disk.miss")
            return None
        except OSError as exc:
            self._bump("disk.error")
            log.warning("cache read failed for %s: %s", path, exc)
            return None
        try:
            record = _unpickle(blob)
            if not isinstance(record, dict) or record.get("magic") != _MAGIC:
                raise ValueError("not a cache record")
            if record.get("format") != FORMAT_VERSION:
                raise ValueError(
                    f"format version {record.get('format')!r}, "
                    f"expected {FORMAT_VERSION}"
                )
            if record.get("kind") != kind or record.get("key") != key:
                raise ValueError(
                    f"record addressed {record.get('kind')!r}/"
                    f"{record.get('key')!r}, expected {kind!r}/{key!r}"
                )
            payload = record["payload"]
        except Exception as exc:  # noqa: BLE001 — corrupt entry = miss
            self._bump("disk.error")
            self._bump("disk.miss")
            log.warning(
                "discarding invalid cache entry %s (%s); analysis "
                "falls back to cold",
                path,
                exc,
            )
            self._discard(path)
            return None
        self._bump("disk.hit")
        self._touch(path)
        return payload

    def put(self, kind: str, key: str, payload: object) -> bool:
        """Atomically store ``payload``; returns False on any failure."""

        path = self._path(kind, key)
        record = {
            "magic": _MAGIC,
            "format": FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        try:
            blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            fd, tmp = self._mkstemp(path, key)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception as exc:  # noqa: BLE001 — persistence is optional
            self._bump("disk.error")
            log.warning("cache write failed for %s: %s", path, exc)
            return False
        self._bump("disk.write")
        self._bump("disk.write_bytes", len(blob))
        self._maybe_evict(len(blob))
        return True

    @staticmethod
    def _mkstemp(path: Path, key: str):
        """A temp file beside ``path``.  Its shard directory is made only
        when it is missing, which after a store's first few writes it
        almost never is."""

        try:
            return tempfile.mkstemp(dir=path.parent, prefix=f".tmp-{key[:8]}-")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            return tempfile.mkstemp(dir=path.parent, prefix=f".tmp-{key[:8]}-")

    def contains(self, kind: str, key: str) -> bool:
        return self._path(kind, key).exists()

    def keys(self, kind: str) -> Set[str]:
        """The keys of every ``kind`` record on disk (temp files of
        writes in flight are not records)."""

        found: Set[str] = set()
        try:
            shards = os.scandir(self.root / kind)
        except OSError:
            return found
        with shards:
            for shard in shards:
                try:
                    listing = os.scandir(shard.path)
                except OSError:
                    continue
                with listing:
                    for entry in listing:
                        if entry.name.endswith(".pkl"):
                            found.add(entry.name[: -len(".pkl")])
        return found

    def discard(self, kind: str, key: str) -> None:
        """Remove one record; a record already gone is no error."""

        self._discard(self._path(kind, key))

    # ------------------------------------------------------------------

    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _records(self):
        """``(path, size, mtime)`` of every record file under the root,
        read from the directory entries (one ``stat`` per record)."""

        stack = [str(self.root)]
        while stack:
            try:
                listing = os.scandir(stack.pop())
            except OSError:
                continue
            with listing:
                for entry in listing:
                    try:
                        if entry.is_dir(follow_symlinks=False):
                            stack.append(entry.path)
                        elif entry.name.endswith(".pkl"):
                            st = entry.stat()
                            yield Path(entry.path), st.st_size, st.st_mtime
                    except OSError:
                        continue

    def _maybe_evict(self, added_bytes: int) -> None:
        """Approximate-size gate in front of :meth:`_evict`.

        Walking and stat-ing every record on *every* write is O(store)
        — it dominated per-mutation latency once session journaling made
        small writes frequent.  Instead, a running byte counter (seeded
        by one walk on the first write, advanced by each write's blob
        size) decides when the real walk is worth it.  Sibling
        processes' writes aren't counted, so a shared store can
        transiently overshoot ``max_bytes`` until this process's own
        writes accumulate — the budget is best-effort either way.
        """

        if self._approx_bytes is None:
            self._approx_bytes = sum(
                size for _, size, _ in self._records()
            )
        else:
            self._approx_bytes += added_bytes
        if self._approx_bytes > self.max_bytes:
            self._evict()

    def _evict(self) -> None:
        entries = list(self._records())
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            self._approx_bytes = total
            return
        entries.sort(key=lambda e: e[2])  # oldest mtime first
        for path, size, _mtime in entries:
            if total <= self.max_bytes:
                break
            self._discard(path)
            total -= size
            self._bump("disk.evict")
        self._approx_bytes = total

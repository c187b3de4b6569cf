"""Warm-start persistence for the incremental analysis engine.

Five record families, all content-addressed into a :class:`DiskCache`:

* **Span records** (``span:<digest of the span text>``) — the bound
  units of one source span, with the start line their lines were
  written at.  Binding reads only the unit it binds, so the span text
  fully determines the bound units up to that line, and a record
  serves *any* program that contains the span, at any position (the
  engine moves the lines to the span's start): across sessions, across
  edits elsewhere in the file (adding, renaming or deleting a routine
  included), and across sibling programs never seen before that merely
  share the procedure body.
* **Unit-summary records** (``usum:<digest of (features, name, span,
  callee keys)>``) — one unit's bottom-up summary values (MOD/REF,
  kill, sections), keyed recursively on the unit's span digest and its
  callees' keys, so a cold open of a never-seen program (or a journal
  replay) still reuses summaries for any call subtree it shares with a
  prior session.  An engine writes one for each unit whose summaries a
  walk recomputed; an ancestor whose key moved while early cutoff kept
  its values gets none until a later lookup misses and recomputes it.
* **Memo segments** (``memo:seg-<digest of the entry keys>``) — the
  program-scoped pair-test memo (:class:`~repro.dependence.hierarchy.
  SharedPairMemo` entries), written as immutable segments: each holds
  the entries one process proved since its last write.  Keys embed the
  oracle digest, nest depth and PARAMETER slice, so the segments safely
  warm *different* programs that repeat the same canonical subscript
  shapes, and processes sharing the directory warm each other.  A
  reader folds in the segments it has not read yet; one that lists
  more than :data:`MEMO_SEGMENTS` compacts them.  No record is ever
  read, merged and rewritten, so no lock is needed.
* **Unit records** (``unit:<digest of the span and, per unit, its
  usum key, inherited constants and assertion texts>``) — one span's
  bound units pickled together with their four summaries (MOD/REF,
  kill, sections, inherited constants) and their dependence entries
  (analysis plus pristine marking snapshot), and the start line the
  span's lines were written at; a program that holds the span
  elsewhere restores it there.  The key covers everything those
  summaries are computed from.
  The entries reference only their own span's ASTs, so the aliasing
  invariant (a cached ``UnitAnalysis`` shares the AST objects of the
  cached span) holds within each record.  An engine writes one when a
  walk refreshes one of the span's units; a reused entry keeps the
  record it was first written to, whose summaries are still current
  (a unit whose summary moves gets a fresh entry).  Unlike ``usum``
  records they are reached only through a manifest.
* **Program records** (``prog:<digest of (features, source,
  assertions)>``) — a small *manifest* of one analyzed program: for
  each span its digest, revision and unit-record key, the summary
  revision counters, and the change-detection baseline.  It holds no
  ASTs, summaries or dependence entries.  Loading one and the unit
  records it names on a cold engine makes the next ``analyze`` a pure
  cache walk — the warm start the benchmarks measure.

The digests mirror the engine's own content keys, so a record can never
be served for content it was not computed from; anything else (format
drift, truncation, corruption) is the :class:`DiskCache`'s problem and
degrades to a cold analysis.

Next to the content-addressed records, the store also keeps one
**session journal file** per named session (``<root>/journal/``, outside
the ``.pkl`` eviction walk): an append-only JSON-lines
log — a format-stamped header line followed by one mutation record per
line — that a :class:`~repro.service.session_host.PedServer` streams
every session mutation into.  Appends flush to the kernel page cache,
so the log survives a SIGKILL of the server process, and
``session.restore`` rebuilds the live session by replaying it.  The
loader follows the cache's degradation philosophy: a truncated trailing
line (the append the crash interrupted) is dropped with a warning, and
any other corruption or format drift logs and falls back cold
(``None`` — the session just isn't restorable).

A ``store-id`` file in the root names the store (:attr:`PersistentStore.id`):
every process sharing the directory reports the same name in its
``metrics`` reply, so a fleet router counts per-store figures once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..dependence.hierarchy import SharedPairMemo
from .diskcache import DiskCache

log = logging.getLogger(__name__)

#: The file naming a cache directory's store (:attr:`PersistentStore.id`).
STORE_ID = "store-id"
SPAN_KIND = "span"
UNIT_KIND = "unit"
PROG_KIND = "prog"
USUM_KIND = "usum"
MEMO_KIND = "memo"
#: A reader that lists more memo segments than this compacts them into
#: one, so a listing stays short however many analyses wrote one.
MEMO_SEGMENTS = 8


#: Bump when the journal file layout (header/line grammar) changes
#: incompatibly, or when a record replays to different text (later
#: ``edit`` records name lines of that text); the loader refuses
#: mismatched files and falls back cold.  2: an ``apply`` rewrites only
#: the transformed routine's lines instead of reprinting the program.
JOURNAL_FORMAT_VERSION = 2
JOURNAL_MAGIC = "ped-journal"


def features_digest(features) -> str:
    payload = repr(sorted(asdict(features).items()))
    return hashlib.sha1(payload.encode()).hexdigest()


class JournalFile:
    """One session's durable, append-only mutation journal.

    Layout: a header line ``{"magic", "format", "session", "base"}``
    followed by one JSON mutation record (wire form, see
    :mod:`repro.editor.journal`) per line.  :meth:`append` writes and
    flushes one line, so every acknowledged mutation is in the kernel
    page cache before the reply leaves the server — a SIGKILL loses at
    most the record being written, which :meth:`load` then drops as a
    truncated tail.
    """

    def __init__(self, path: Path, session: str, stats=None) -> None:
        self.path = Path(path)
        self.session = session
        self.stats = stats
        self._fh = None

    # -- writing --------------------------------------------------------

    def reset(self, base_source: str) -> None:
        """Start a fresh journal (atomic header swap), ready to append."""

        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "magic": JOURNAL_MAGIC,
                "format": JOURNAL_FORMAT_VERSION,
                "session": self.session,
                "base": base_source,
            },
            separators=(",", ":"),
            sort_keys=True,
        )
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8")

    def open_append(self) -> None:
        """Attach to an existing journal without rewriting it (the
        restore path: the file already holds the replayed records)."""

        self.close()
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record_wire: Dict) -> None:
        if self._fh is None:  # pragma: no cover - misuse guard
            raise RuntimeError("journal file is not open for appends")
        line = json.dumps(record_wire, separators=(",", ":"), sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.stats is not None:
            self.stats.bump("journal.records")
            self.stats.bump("journal.bytes", len(line) + 1)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    # -- reading --------------------------------------------------------

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> Optional[Dict]:
        """The persisted journal in wire form (``{"version", "base",
        "records"}``), or ``None`` (missing/corrupt — logged, cold)."""

        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning(
                "journal for %r unreadable (%s); falling back cold",
                self.session,
                exc,
            )
            return None
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            log.warning(
                "journal for %r is empty; falling back cold", self.session
            )
            return None
        try:
            header = json.loads(lines[0])
        except ValueError:
            header = None
        if (
            not isinstance(header, dict)
            or header.get("magic") != JOURNAL_MAGIC
            or not isinstance(header.get("base"), str)
        ):
            log.warning(
                "journal for %r has a corrupt header; falling back cold",
                self.session,
            )
            return None
        if header.get("format") != JOURNAL_FORMAT_VERSION:
            log.warning(
                "journal for %r is format v%r (this build reads v%d); "
                "falling back cold",
                self.session,
                header.get("format"),
                JOURNAL_FORMAT_VERSION,
            )
            return None
        records: List[Dict] = []
        for i, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except ValueError:
                if i == len(lines):
                    # The append a crash interrupted: drop it, keep the rest.
                    log.warning(
                        "journal for %r has a truncated trailing record "
                        "(line %d); dropping it",
                        self.session,
                        i,
                    )
                    break
                log.warning(
                    "journal for %r is corrupt at line %d; "
                    "falling back cold",
                    self.session,
                    i,
                )
                return None
            if not isinstance(record, dict):
                log.warning(
                    "journal for %r line %d is not a record object; "
                    "falling back cold",
                    self.session,
                    i,
                )
                return None
            records.append(record)
        return {"version": 1, "base": header["base"], "records": records}


class PersistentStore:
    """The engine's view of the on-disk cache."""

    def __init__(self, cache: DiskCache) -> None:
        self.cache = cache
        self._id: Optional[str] = None
        #: Serializes the memo methods of the engines sharing this store
        #: (a server's session engines).
        self._memo_lock = threading.Lock()
        #: The memo segments this store has read or written.
        self._memo_segments: Set[str] = set()
        #: The keys of the entries those segments hold.
        self._memo_keys: Set[tuple] = set()

    @classmethod
    def at(cls, path, max_bytes: int = 256 * 1024 * 1024, stats=None):
        return cls(DiskCache(path, max_bytes=max_bytes, stats=stats))

    @property
    def stats(self):
        return self.cache.stats

    @stats.setter
    def stats(self, value) -> None:
        self.cache.stats = value

    @property
    def id(self) -> Optional[str]:
        """The name of the directory this store lives in, kept in its
        ``store-id`` file, so every process sharing one cache directory
        reports the same store; ``None`` when the file cannot be read or
        made.  The first process to link a new one into place wins."""

        if self._id is None:
            path = self.cache.root / STORE_ID
            try:
                fd, tmp = tempfile.mkstemp(
                    dir=self.cache.root, prefix=".tmp-id-"
                )
                try:
                    with os.fdopen(fd, "w") as fh:
                        fh.write(os.urandom(16).hex())
                    os.link(tmp, path)
                except FileExistsError:
                    pass
                finally:
                    os.unlink(tmp)
                self._id = path.read_text()
            except OSError as exc:
                log.warning("cannot name the store at %s: %s", path, exc)
        return self._id

    # -- span records ---------------------------------------------------

    def load_span(self, digest: str) -> Optional[Tuple[int, List[object]]]:
        """One span's ``(start line, bound units)``, or ``None``."""

        record = self.cache.get(SPAN_KIND, digest)
        return record if isinstance(record, tuple) and len(record) == 2 else None

    def save_span(self, digest: str, start: int, units: List[object]) -> bool:
        """Write one span record, its units parsed at ``start``, unless
        it is already on disk; True when the record is there
        afterwards."""

        if self.cache.contains(SPAN_KIND, digest):
            return True
        return self.cache.put(SPAN_KIND, digest, (start, units))

    # -- unit records ---------------------------------------------------

    def load_unit_record(self, key: str) -> Optional[Dict[str, object]]:
        """One span's ``{digest, start, units, candidates, summaries,
        deps}``, or ``None``."""

        payload = self.cache.get(UNIT_KIND, key)
        return payload if isinstance(payload, dict) else None

    def save_unit_record(self, key: str, payload: Dict[str, object]) -> bool:
        """Write one unit record unless it is already on disk; True when
        the record is there afterwards."""

        if self.cache.contains(UNIT_KIND, key):
            return True
        return self.cache.put(UNIT_KIND, key, payload)

    # -- per-unit summary records ---------------------------------------

    def load_unit_summary(self, key: str) -> Optional[Dict[str, object]]:
        """``{phase: summary}`` for one content-keyed unit, or ``None``."""

        payload = self.cache.get(USUM_KIND, key)
        return payload if isinstance(payload, dict) else None

    def save_unit_summary(self, key: str, values: Dict[str, object]) -> bool:
        if self.cache.contains(USUM_KIND, key):
            return False
        return self.cache.put(USUM_KIND, key, dict(values))

    # -- shared pair-test memo segments ---------------------------------

    def load_memo(self) -> Dict[tuple, tuple]:
        """The entries of the memo segments this store has not read yet,
        less those a segment it did read holds.

        Reads nothing while the listing names no new segment.  A listing
        of more than :data:`MEMO_SEGMENTS` segments is compacted: their
        union, capped at :data:`SharedPairMemo.MAX_ENTRIES`, is written
        as one segment first, and only then are the segments it was read
        from unlinked.  A segment that vanished since the listing (a
        concurrent compaction unlinked it after writing the union that
        holds its entries) or fails validation is skipped.
        """

        with self._memo_lock:
            names = self.cache.keys(MEMO_KIND)
            compact = len(names) > MEMO_SEGMENTS
            fresh: Dict[tuple, tuple] = {}
            union: Dict[tuple, tuple] = {}
            read = []
            for name in sorted(names):
                if name in self._memo_segments and not compact:
                    continue
                entries = self.cache.get(MEMO_KIND, name)
                if not isinstance(entries, dict):
                    continue
                read.append(name)
                for key, value in entries.items():
                    if key not in self._memo_keys:
                        fresh.setdefault(key, value)
                    if compact and len(union) < SharedPairMemo.MAX_ENTRIES:
                        union.setdefault(key, value)
            self._memo_segments.intersection_update(names)
            self._memo_segments.update(read)
            self._memo_keys.update(fresh)
            if compact and read:
                kept = self._put_memo_segment(union)
                if kept is not None:
                    for name in read:
                        if name != kept:
                            self.cache.discard(MEMO_KIND, name)
                            self._memo_segments.discard(name)
            return fresh

    def save_memo(self, entries: Dict[tuple, tuple]) -> int:
        """Write the entries no segment this store has read or written
        holds (those proved since its last write) as one new segment;
        returns how many it wrote."""

        # Other sessions' walks may be adding to a server's memo.
        snapshot = dict(entries)
        with self._memo_lock:
            delta = {
                k: v for k, v in snapshot.items() if k not in self._memo_keys
            }
            if not delta or self._put_memo_segment(delta) is None:
                return 0
            self._memo_keys.update(delta)
            return len(delta)

    @property
    def memo_entries(self) -> int:
        """How many distinct entries the memo segments this store has
        read or written hold."""

        return len(self._memo_keys)

    def _put_memo_segment(self, entries: Dict[tuple, tuple]) -> Optional[str]:
        """Write ``entries`` as the segment named by their keys; its
        name, or ``None`` when the write failed."""

        h = hashlib.sha1()
        for text in sorted(map(repr, entries)):
            h.update(text.encode())
            h.update(b"\x00")
        # One shared prefix files every segment in one directory, so a
        # listing reads one directory however many segments came and went.
        name = f"seg-{h.hexdigest()}"
        if not (
            self.cache.contains(MEMO_KIND, name)
            or self.cache.put(MEMO_KIND, name, entries)
        ):
            return None
        self._memo_segments.add(name)
        return name

    # -- session journals ----------------------------------------------

    def journal(self, session: str) -> JournalFile:
        """The durable journal file for one named session.

        Files live under ``<root>/journal/`` — outside the ``.pkl``
        eviction walk, so the LRU sweep never reaps a session's
        history — and are named by the session-name digest
        (client-chosen names are not filesystem-safe).
        """

        digest = hashlib.sha1(session.encode()).hexdigest()
        path = self.cache.root / "journal" / f"{digest}.jsonl"
        return JournalFile(path, session, stats=self.stats)

    # -- program manifests ----------------------------------------------

    def program_key(
        self,
        features,
        source: str,
        assertions: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> str:
        h = hashlib.sha1()
        h.update(features_digest(features).encode())
        h.update(b"\x00")
        h.update(source.encode())
        h.update(b"\x00")
        for name in sorted(assertions or {}):
            h.update(name.encode())
            for text in assertions[name]:
                h.update(b"\x01")
                h.update(text.encode())
            h.update(b"\x02")
        return h.hexdigest()

    def load_program(self, key: str) -> Optional[dict]:
        """The program manifest stored under ``key``, or ``None``."""

        payload = self.cache.get(PROG_KIND, key)
        return payload if isinstance(payload, dict) else None

    def save_program(self, key: str, state: dict) -> bool:
        return self.cache.put(PROG_KIND, key, state)

    def has_program(self, key: str) -> bool:
        return self.cache.contains(PROG_KIND, key)

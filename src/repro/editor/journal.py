"""Event-sourced session journal: typed mutation records + replay.

Every :class:`~repro.editor.session.PedSession` mutation — edits,
transformation applies, assertions, dependence markings, variable
reclassifications, selection moves, undo/redo — appends one typed,
JSON-serializable :class:`MutationRecord` to the session's
:class:`SessionJournal`.  The journal is the canonical history: the live
session state is, by construction, what :func:`replay_journal` produces
from the base source plus the record sequence, and the replay-parity
tests assert byte-identical analysis fingerprints at *every* prefix.

That single invariant buys several features at once:

* **time travel** — undo/redo restore the state at a journal position,
  falling back to a prefix replay when the interned snapshot for that
  position was evicted;
* **durability** — the service layer streams records to an append-only
  per-session file and can rebuild a killed server's sessions by
  replaying them (``session.restore``);
* **audit/debugging** — ``session.log`` pages through the raw records.

Records only capture *user-level intent* (the arguments the caller
passed), never derived state: replay re-derives everything through the
same analysis pipeline, which is what makes the fingerprint parity a
meaningful end-to-end check.  Replay analyzes only where a question is
asked: each record goes through the session's own mutation method and
updates the text and the parse, and the analysis settles with one
engine walk when a record or the caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import PedSession

#: Bump when the record schema changes incompatibly.  Persisted journals
#: carry this stamp; the loader refuses (and falls back cold) on mismatch.
JOURNAL_VERSION = 1

#: Every record ``op`` the replayer understands, in no particular order.
MUTATION_OPS = (
    "edit",
    "apply",
    "assert",
    "mark",
    "reclassify",
    "select",
    "undo",
    "redo",
)

_SCALARS = (str, int, float, bool, type(None))


class JournalError(Exception):
    """A journal cannot be (de)serialized or replayed."""


def _wire_value(value):
    """JSON-safe view of one recorded argument.

    Scalars pass through; lists/tuples/dicts of scalars recurse.  Any
    other value (an AST node passed straight to ``apply`` by library
    code) is kept as an ``__opaque__`` repr: the journal stays
    appendable and readable, but replaying that record raises a clear
    :class:`JournalError` instead of silently diverging.
    """

    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_wire_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _wire_value(v) for k, v in value.items()}
    return {"__opaque__": repr(value)}


def _is_opaque(value) -> bool:
    if isinstance(value, dict):
        if "__opaque__" in value:
            return True
        return any(_is_opaque(v) for v in value.values())
    if isinstance(value, list):
        return any(_is_opaque(v) for v in value)
    return False


@dataclass(frozen=True)
class MutationRecord:
    """One journaled mutation: an op name plus its user-level arguments."""

    op: str
    args: Dict[str, object] = field(default_factory=dict)

    def to_wire(self) -> Dict:
        return {"op": self.op, "args": dict(self.args)}

    @classmethod
    def from_wire(cls, wire: Dict) -> "MutationRecord":
        try:
            op = wire["op"]
        except (TypeError, KeyError):
            raise JournalError(f"malformed journal record: {wire!r}")
        if op not in MUTATION_OPS:
            raise JournalError(f"unknown journal op {op!r}")
        args = wire.get("args") or {}
        if not isinstance(args, dict):
            raise JournalError(f"journal record args must be a dict: {wire!r}")
        return cls(op, args)

    @property
    def replayable(self) -> bool:
        return not _is_opaque(self.args)


@dataclass
class SessionJournal:
    """Append-only mutation log for one session.

    ``base_source`` is the program text the session opened with; the
    records, applied in order on top of it, reproduce the live state.
    An optional ``listener`` observes each append — the service layer
    hangs its durable per-session journal file there, so persistence
    stays an editor-layer-free concern.
    """

    base_source: str
    records: List[MutationRecord] = field(default_factory=list)
    #: Called with each freshly appended record (service-layer durability
    #: hook).  Listener failures propagate: losing the durable log must
    #: not go unnoticed.
    listener: Optional[Callable[[MutationRecord], None]] = None

    def __len__(self) -> int:
        return len(self.records)

    def append(self, op: str, **args) -> MutationRecord:
        if op not in MUTATION_OPS:
            raise JournalError(f"unknown journal op {op!r}")
        record = MutationRecord(op, {k: _wire_value(v) for k, v in args.items()})
        self.records.append(record)
        if self.listener is not None:
            self.listener(record)
        return record

    def to_wire(self) -> Dict:
        return {
            "version": JOURNAL_VERSION,
            "base": self.base_source,
            "records": [r.to_wire() for r in self.records],
        }

    @classmethod
    def from_wire(cls, wire: Dict) -> "SessionJournal":
        if not isinstance(wire, dict):
            raise JournalError(f"journal wire form must be a dict: {type(wire)}")
        version = wire.get("version")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"journal version {version!r} unsupported "
                f"(this build reads v{JOURNAL_VERSION})"
            )
        base = wire.get("base")
        if not isinstance(base, str):
            raise JournalError("journal missing base source")
        records = [MutationRecord.from_wire(r) for r in wire.get("records", [])]
        return cls(base_source=base, records=records)


def apply_record(session: "PedSession", record: MutationRecord) -> None:
    """Apply one record to a live session via the same public mutation
    methods a user would call (which re-append it to ``session.journal``,
    keeping live and replayed journals identical)."""

    if not record.replayable:
        raise JournalError(
            f"record {record.op!r} holds non-serializable arguments and "
            f"cannot be replayed: {record.args!r}"
        )
    args = record.args
    try:
        if record.op == "edit":
            session.edit(int(args["start"]), int(args["end"]), args.get("text") or "")
        elif record.op == "apply":
            session.apply(args["transform"], **(args.get("args") or {}))
        elif record.op == "assert":
            session.add_assertion(args["text"])
        elif record.op == "mark":
            session.mark_dependence(int(args["dep"]), args["marking"])
        elif record.op == "reclassify":
            session.reclassify(args["var"], args["classification"])
        elif record.op == "select":
            if args.get("unit") is not None:
                session.select_unit(args["unit"])
            if args.get("loop") is not None:
                session.select_loop(int(args["loop"]))
        elif record.op == "undo":
            session.undo()
        elif record.op == "redo":
            session.redo()
        else:  # pragma: no cover - from_wire/append validate ops
            raise JournalError(f"unknown journal op {record.op!r}")
    except KeyError as exc:
        raise JournalError(
            f"record {record.op!r} missing argument {exc.args[0]!r}"
        ) from exc


def replay_journal(
    journal: SessionJournal,
    upto: Optional[int] = None,
    *,
    features=None,
    engine=None,
    progress: Optional[Callable[[int, MutationRecord], None]] = None,
) -> "PedSession":
    """Rebuild a session at journal position ``upto`` (record count;
    ``None`` replays everything).

    The replayed session runs through the provided ``engine`` when given
    (sharing its content-keyed caches makes replaying previously seen
    states cheap) and journals its own replay, so
    ``replayed.journal.records == journal.records[:upto]`` — an equality
    the parity tests pin down.

    The base source is analyzed as it opens; the records are applied
    under :meth:`PedSession.deferring`, so each updates the text and the
    parse, and the analysis settles with one walk when something reads
    it: a record that needs it (``mark``, ``apply``, a loop selection)
    or the caller.
    """

    from .session import PedSession

    records = journal.records if upto is None else journal.records[:upto]
    session = PedSession(journal.base_source, features=features, engine=engine)
    with session.deferring():
        for i, record in enumerate(records):
            if progress is not None:
                progress(i, record)
            apply_record(session, record)
    return session

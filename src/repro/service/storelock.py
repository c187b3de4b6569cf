"""Lease-based coordination for stores shared by multiple processes.

The content-addressed half of the disk cache needs no coordination:
records are immutable (a key fully determines its payload) and written
via atomic rename, so concurrent writers of the *same* key produce the
same bytes and concurrent readers never observe a torn record.  What
does need coordination is the one mutable singleton — the shared
pair-test memo, updated by read-merge-write — and that is what
:class:`StoreLease` guards.

**Lease state machine.**  A lease is a small JSON file next to the
store (``<root>/locks/<name>.lease``) recording ``{holder, pid,
expires}``:

* ``free`` — no lease file.  ``acquire`` writes its record to a temp
  file of its own in the lock directory and hard-links it to the lease
  path (the atomic arbiter: exactly one link wins, and the file appears
  with its whole record, so no reader can mistake a lease being
  created for a corrupt one), then verifies by reading its own record
  back.
* ``held`` — file exists, ``expires`` in the future.  Waiters poll with
  a small sleep until the deadline; an ``acquire`` timeout returns
  ``False`` (callers skip the guarded work — it is an optimization,
  never a correctness requirement).
* ``stale`` — file exists but ``expires`` passed, i.e. the holder
  crashed or hung past its TTL.  The next waiter *takes over*: it logs
  the dead holder, unlinks the stale file and loops back to the link
  race.  Crashed-holder recovery is therefore a logged warning (with
  the takeover reason), not a fatal condition.  A corrupt/unreadable
  record (leases are never written in place, so only a damaged or
  foreign file) is treated exactly like a stale one, and so
  is a record carrying *our own* holder token — the lease is not
  reentrant, so finding our token means a previous incarnation of this
  process orphaned it (staleness compares holder tokens, never bare
  pids, which the OS reuses across restarts).

**Takeover race.**  Two waiters can both observe the same stale lease
and race the takeover; the exclusive link plus the post-create read-back
verification resolve the common interleavings, but a millisecond-scale
window remains in which both believe they hold the lease.  That is
acceptable *by design*: every guarded writer in this codebase performs
idempotent monotone merges of content-addressed entries through atomic
renames, so the worst outcome of a double-holder is one lost delta
(re-exported on the next sync), never a corrupt record.

Counters (on an attached stats object): ``lease.acquired``,
``lease.contended`` (had to wait at least once), ``lease.takeover``
(stale lease broken), ``lease.timeout`` (gave up waiting).
"""

from __future__ import annotations

import json
import logging
import os
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

log = logging.getLogger(__name__)

#: How long a lease lives without renewal; generous next to the
#: sub-second critical sections it guards, small enough that a crashed
#: holder stalls siblings only briefly.
DEFAULT_TTL = 10.0
#: Poll interval while waiting on a held lease.
POLL_S = 0.02
#: Settle delay before the post-create read-back verification.
VERIFY_DELAY_S = 0.002


def default_holder_id() -> str:
    """A holder id unique across the processes sharing one store."""

    return (
        f"{socket.gethostname()}:{os.getpid()}:{threading.get_ident():x}"
    )


class StoreLease:
    """One named lease over a shared store; reusable but not reentrant."""

    def __init__(
        self,
        path,
        holder: Optional[str] = None,
        ttl: float = DEFAULT_TTL,
        stats=None,
    ) -> None:
        self.path = Path(path)
        self.holder = holder or default_holder_id()
        self.ttl = ttl
        self.stats = stats
        self.held = False

    # ------------------------------------------------------------------

    def _bump(self, name: str) -> None:
        if self.stats is not None:
            self.stats.bump(name)

    def _record(self) -> bytes:
        return json.dumps(
            {
                "holder": self.holder,
                "pid": os.getpid(),
                "expires": time.time() + self.ttl,
            }
        ).encode()

    def _read(self) -> Optional[dict]:
        """The current lease record, or ``None`` for free/corrupt.

        A corrupt record returns ``{"holder": None, "expires": 0}`` —
        indistinguishable from stale, which is exactly the treatment it
        deserves (a damaged file, or one that predates this format).
        """

        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return {"holder": None, "pid": None, "expires": 0.0}
        try:
            rec = json.loads(blob)
            if not isinstance(rec, dict) or "expires" not in rec:
                raise ValueError("not a lease record")
            return rec
        except ValueError:
            return {"holder": None, "pid": None, "expires": 0.0}

    def _try_create(self) -> bool:
        """Race to create the lease file, complete with its record.

        The record goes to a temp file private to this attempt, which
        is then hard-linked to the lease path: the link either creates
        the file with its whole content at once or fails because the
        lease exists, so no reader ever sees an empty lease file.
        """

        tmp = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.path.parent,
                prefix=f".{self.path.name}.",
                suffix=".tmp",
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(self._record())
            os.link(tmp, self.path)
        except FileExistsError:
            return False
        except OSError as exc:
            # Unwritable lock dir: behave like a timeout (the caller
            # skips the guarded optimization), never crash the analysis.
            log.warning("cannot create lease %s: %s", self.path, exc)
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        # Read-back verification: shrinks the takeover race window — a
        # concurrent stale-takeover may have unlinked and recreated the
        # file between our create and now.
        time.sleep(VERIFY_DELAY_S)
        rec = self._read()
        return bool(rec) and rec.get("holder") == self.holder

    # ------------------------------------------------------------------

    def _takeover_reason(self, rec: dict) -> Optional[str]:
        """Why a found lease record may be broken, or ``None`` if it is
        legitimately held.

        Staleness is decided on the *holder token* (hostname + pid +
        thread id), never on the pid alone: after a host restart the OS
        happily hands a new process the pid a dead lease records, and a
        pid-based check would treat the orphan as alive forever (or,
        worse, let the unrelated new process "renew" it).  Three broken
        states, each with its own logged reason:

        * the TTL expired — the holder crashed or hung past its lease;
        * the record is corrupt/unreadable — a damaged or foreign file;
        * the record carries *our own* holder token — this exact
          host/pid/thread wrote it in a previous incarnation (the lease
          is not reentrant, so a live self-wait is impossible), i.e.
          the process restarted and inherited its own orphan.
        """

        expires = rec.get("expires", 0)
        holder = rec.get("holder")
        if holder is None and not expires:
            return "corrupt or unreadable lease record"
        if expires <= time.time():
            return (
                f"holder missed its {self.ttl:g}s TTL — crashed or hung"
            )
        if holder == self.holder:
            return (
                "lease carries our own holder token — orphaned by a "
                "previous incarnation of this process (pid reuse after "
                "restart)"
            )
        return None

    def acquire(self, timeout: float = 5.0) -> bool:
        """Take the lease, waiting up to ``timeout`` seconds.

        Returns ``False`` on timeout (the caller should skip the
        guarded work); stale leases are taken over with a logged
        warning.
        """

        deadline = time.monotonic() + timeout
        contended = False
        while True:
            if self._try_create():
                self.held = True
                self._bump("lease.acquired")
                if contended:
                    self._bump("lease.contended")
                return True
            rec = self._read()
            if rec is None:
                continue  # vanished between create and read: retry
            reason = self._takeover_reason(rec)
            if reason is not None:
                log.warning(
                    "taking over lease %s (holder %r, pid %r): %s",
                    self.path,
                    rec.get("holder"),
                    rec.get("pid"),
                    reason,
                )
                self._bump("lease.takeover")
                try:
                    self.path.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    pass
                continue
            contended = True
            if time.monotonic() >= deadline:
                self._bump("lease.timeout")
                return False
            time.sleep(POLL_S)

    def renew(self) -> bool:
        """Push the expiry out by one TTL; only valid while held *and*
        unexpired (an expired lease must be re-acquired — renewing it
        could stomp a sibling's legitimate takeover)."""

        if not self.held:
            return False
        rec = self._read()
        if (
            not rec
            or rec.get("holder") != self.holder
            or rec.get("expires", 0) <= time.time()
        ):
            self.held = False
            return False
        tmp = self.path.with_suffix(".lease-renew")
        try:
            tmp.write_bytes(self._record())
            os.replace(tmp, self.path)
        except OSError:
            return False
        return True

    def release(self) -> None:
        """Give the lease up (only if we still hold it)."""

        if not self.held:
            return
        self.held = False
        rec = self._read()
        if rec and rec.get("holder") == self.holder:
            try:
                self.path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------

    def __enter__(self) -> "StoreLease":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

"""Dependence ids do not depend on string hashing.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so an edge
order that follows a set or dict of names differs from one process to
the next.  Edge ids are insertion order, and a journal ``mark`` names
its edge by id: a journal written by one process must mark the same
edge when another process replays it.
"""

import json
import subprocess
import sys

from ..serving import child_env

ID_ROWS = """
import json
from repro.incremental import AnalysisEngine
from repro.workloads import SUITE

rows = []
for name in sorted(SUITE):
    pa = AnalysisEngine().analyze(SUITE[name].source)[1]
    for unit, ua in sorted(pa.units.items()):
        rows += [
            [name, unit, d.id, d.kind, d.var, d.src_sid, d.dst_sid,
             d.vector_str()]
            for d in ua.graph.edges
        ]
print(json.dumps(rows))
"""

#: Mark the first loop-independent edge on ``i`` rejected; print the
#: journal and the fingerprint it leaves.
RECORD = """
import json
import sys
from repro.editor import PedSession
from repro.incremental.fingerprint import fingerprint_digest

session = PedSession(sys.stdin.read())
edge = next(
    d for d in session.unit_analysis.graph.edges
    if d.var == "i" and d.level == 0
)
session.mark_dependence(edge.id, "rejected")
print(json.dumps({
    "journal": session.journal.to_wire(),
    "fingerprint": fingerprint_digest(session.analysis),
}))
"""

REPLAY = """
import json
import sys
from repro.editor.journal import SessionJournal, replay_journal
from repro.incremental.fingerprint import fingerprint_digest

session = replay_journal(SessionJournal.from_wire(json.load(sys.stdin)))
print(fingerprint_digest(session.analysis))
"""

#: The SC'89 worked example (Figure 2): the loop headers and ``s`` give
#: loop-independent scalar edges on ``i``, ``j`` and ``s``.
EXAMPLE = """      program example
      integer n
      parameter (n = 64)
      real a(n, n), b(n), s
      s = 0.0
      do i = 2, n
         do j = 1, n - 1
            a(i, j) = a(i-1, j+1) + a(i-1, j)
         end do
      end do
      do i = 1, n
         b(i) = b(i) + 2.0
         s = s + b(i)
      end do
      write (6, *) s
      end
"""


def _run(script, seed, stdin=""):
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        text=True,
        env=child_env(PYTHONHASHSEED=str(seed)),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_suite_edge_ids_are_the_same_in_every_process():
    rows = [json.loads(_run(ID_ROWS, seed)) for seed in (0, 1)]
    assert rows[0], "the suite must have dependence edges"
    assert rows[0] == rows[1]


def test_a_mark_replays_onto_the_same_edge_in_another_process():
    recorded = json.loads(_run(RECORD, 1, EXAMPLE))
    replayed = _run(REPLAY, 2, json.dumps(recorded["journal"])).strip()
    assert replayed == recorded["fingerprint"]

"""``python -m repro serve --stdio`` over every kind of stdin/stdout.

The stdio front end reads and writes the process's own descriptors, so
it must behave the same whether they are pipes, regular files (shell
redirects) or a client that negotiates binary frames and compression.
Each run must answer every request, exit 0 and leave stderr empty.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.service import PedClient

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)

# Independent requests only: the server runs them concurrently, so a
# request naming a session another line opens could race that open.
REQUESTS = [
    {"id": 1, "op": "ping"},
    {"id": 2, "op": "open", "session": "a", "source": SIMPLE},
    {"id": 3, "op": "open", "session": "b", "source": SIMPLE},
    {"id": 4, "op": "no-such-op"},
]


def _argv(tmp_path):
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--stdio",
        "--cache-dir",
        str(tmp_path / "cache"),
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _request_bytes() -> bytes:
    lines = [json.dumps(r) for r in REQUESTS] + ["not json"]
    return ("\n".join(lines) + "\n").encode()


def _check_replies(data: bytes) -> None:
    replies = [json.loads(line) for line in data.decode().splitlines()]
    assert len(replies) == len(REQUESTS) + 1
    by_id = {r["id"]: r for r in replies}
    assert by_id[1]["result"]["pong"] is True
    assert by_id[2]["result"]["units"] == ["p"]
    assert by_id[3]["result"]["units"] == ["p"]
    assert by_id[4]["error"]["type"] == "unknown-op"
    assert by_id[None]["error"]["type"] == "bad-request"
    assert sorted(r["seq"] for r in replies) == list(
        range(1, len(replies) + 1)
    )


def test_file_redirects(tmp_path):
    """``serve --stdio < requests.jsonl > replies.jsonl``."""

    requests = tmp_path / "requests.jsonl"
    replies = tmp_path / "replies.jsonl"
    requests.write_bytes(_request_bytes())
    with open(requests, "rb") as fin, open(replies, "wb") as fout:
        proc = subprocess.run(
            _argv(tmp_path),
            stdin=fin,
            stdout=fout,
            stderr=subprocess.PIPE,
            env=_env(),
            timeout=120,
        )
    assert proc.returncode == 0
    assert proc.stderr == b""
    _check_replies(replies.read_bytes())


def test_pipes(tmp_path):
    proc = subprocess.run(
        _argv(tmp_path),
        input=_request_bytes(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    _check_replies(proc.stdout)


def test_spawned_client_negotiates_frames_and_compression(tmp_path):
    """The full ladder through :meth:`PedClient.spawn`, then a plain
    close (end of input, no ``shutdown``) ends the server cleanly."""

    client = PedClient.spawn(
        _argv(tmp_path), env=_env(), stderr=subprocess.PIPE
    )
    try:
        assert client.negotiate_compression(wait=60) is True
        events = list(client.stream("open", session="s", source=SIMPLE))
        assert events[-1].kind == "result"
        assert events[-1].data["units"] == ["p"]
        loops = client.request("loops", session="s", unit="p", wait=60)
        assert loops["loops"][0]["parallelizable"] is True
    finally:
        client.close()
    assert client.process.returncode == 0
    assert client.process.stderr.read() == b""

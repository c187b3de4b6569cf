"""End-to-end smoke test: a real ``python -m repro serve --stdio``
subprocess driven through the client."""

import sys

from repro.service import PedClient

from ..serving import child_env

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


def test_stdio_server_subprocess_round_trip(tmp_path):
    client = PedClient.spawn(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--stdio",
            "--cache-dir",
            str(tmp_path / "cache"),
        ],
        env=child_env(),
    )
    try:
        assert client.request("ping", wait=60)["pong"] is True
        opened = client.request("open", session="s", source=SIMPLE, wait=60)
        assert opened["units"] == ["p"]
        loops = client.request("loops", session="s", unit="p", wait=60)
        assert loops["loops"][0]["parallelizable"] is True
        stats = client.request("stats", wait=60)
        assert "req.open" in stats["stages"]
        assert client.request("shutdown", wait=60)["shutting_down"] is True
    finally:
        client.close()
    assert client.process.returncode == 0

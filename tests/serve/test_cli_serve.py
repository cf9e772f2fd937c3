"""CLI-level tests: the ``serve`` subcommand as an operator runs it."""

import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import COMMANDS

pytestmark = pytest.mark.serve

_ENV = {**os.environ,
        "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "..", "src")}


def test_help_epilog_lists_every_subcommand():
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--help"],
        env=_ENV, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0
    # The epilog is generated from the registry, so every registered
    # subcommand (and nothing that isn't one) must appear in it.
    epilog = out.stdout[out.stdout.index("commands:"):]
    for name, help_line in COMMANDS.items():
        assert f"{name:<12}{help_line}" in epilog
    assert set(COMMANDS) == {"compress", "decompress", "verify", "qualify",
                             "stats", "lint", "chaos", "serve"}


@pytest.mark.parametrize("size", ["0", "-4"])
def test_non_positive_chunk_size_is_a_usage_error(size, capsys, monkeypatch):
    """A store with such a chunk size would serve empty files."""
    from repro import cli

    monkeypatch.setattr(cli, "_serve",
                        lambda args, config: pytest.fail("server started"))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["serve", "--chunk-size", size])
    assert exit_info.value.code == 2
    assert "--chunk-size" in capsys.readouterr().err


def test_sigterm_drains_and_exits_7(tmp_path):
    """SIGTERM → graceful drain → the §6.2 SERVER_SHUTDOWN exit status."""
    port = "18515"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", port],
        env=_ENV, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stderr.readline()
        assert f"serving on http://127.0.0.1:{port}" in line
        deadline = time.monotonic() + 15
        while True:   # the ready line precedes the socket by a whisker
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=5) as resp:
                    assert resp.status == 200
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 7
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

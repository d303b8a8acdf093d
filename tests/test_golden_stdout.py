"""One sha256 digest over the command line's stdout and exit codes.

It covers ``solve`` (``--eps 1/10`` with the other flags at their
defaults, and ``--eps 0 --max-stages 3``) and ``cells --m 4`` over every
game file in ``tests/data`` and every game of the fixture suite.  The
digest was recorded before the certificate evaluation moved onto the
grid's integers, so any byte of difference in a report fails here.

To record it anew after a deliberate change of output::

    PYTHONPATH=src:tests python tests/test_golden_stdout.py > tests/data/golden/cli_stdout.sha256
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import tempfile

from cellnash import serialize_game
from cellnash.cli import run_cli

from conftest import fixture_suite

DATA = os.path.join(os.path.dirname(__file__), "data")
DIGEST = os.path.join(DATA, "golden", "cli_stdout.sha256")
COMMANDS = (
    ("solve", "--eps", "1/10"),
    ("solve", "--eps", "0", "--max-stages", "3"),
    ("cells", "--m", "4"),
)


def stdout_digest() -> str:
    """sha256 over each run's command, exit code and stdout, in order."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = sorted(glob.glob(os.path.join(DATA, "*.json")))
        for game in fixture_suite():
            path = os.path.join(tmp, f"{game.name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_game(game))
            paths.append(path)
        for path in paths:
            for command, *flags in COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run_cli([command, path, *flags])
                name = os.path.basename(path)
                digest.update(f"{command} {name} {' '.join(flags)}\n".encode())
                digest.update(f"exit {code}\n".encode())
                digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_cli_stdout_matches_the_recorded_digest(monkeypatch):
    monkeypatch.delenv("NASH_BUDGET", raising=False)
    with open(DIGEST, encoding="utf-8") as handle:
        assert stdout_digest() == handle.read().strip()


if __name__ == "__main__":
    print(stdout_digest())

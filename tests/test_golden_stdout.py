"""Two sha256 digests over the command line's stdout and exit codes.

The first covers ``solve`` (``--eps 1/10`` with the other flags at their
defaults, and ``--eps 0 --max-stages 3``) and ``cells --m 4`` over every
game file in ``tests/data`` and every game of the fixture suite.  It was
recorded before the certificate evaluation moved onto the grid's
integers.  The second covers the other subcommands on the game files in
``tests/data``: ``eval`` and ``verify`` at the uniform and the first pure
profile, ``oracle --m 4 --support-enum`` and ``volume-check --m 4``, plus
three error paths: an unreadable (non-ASCII) path, a malformed command
line, and ``cells`` with no certificate.  It was recorded while every
report still went through ``json.dumps(indent=2)``, so any byte of
difference from that encoder fails here.

To record them anew after a deliberate change of output::

    PYTHONPATH=src:tests python tests/test_golden_stdout.py > tests/data/golden/cli_stdout.sha256
    PYTHONPATH=src:tests python tests/test_golden_stdout.py other > tests/data/golden/cli_other_stdout.sha256
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

from cellnash import serialize_game
from cellnash.cli import run_cli

from conftest import fixture_suite

DATA = os.path.join(os.path.dirname(__file__), "data")
DIGEST = os.path.join(DATA, "golden", "cli_stdout.sha256")
OTHER_DIGEST = os.path.join(DATA, "golden", "cli_other_stdout.sha256")
COMMANDS = (
    ("solve", "--eps", "1/10"),
    ("solve", "--eps", "0", "--max-stages", "3"),
    ("cells", "--m", "4"),
)


def _record(digest, label: str, argv) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    digest.update(f"{label}\n".encode())
    digest.update(f"exit {code}\n".encode())
    digest.update(out.getvalue().encode())


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
                name = os.path.basename(path)
                label = f"{command} {name} {' '.join(flags)}"
                _record(digest, label, [command, path, *flags])
    return digest.hexdigest()


def other_stdout_digest() -> str:
    """sha256 over the other subcommands' and the error paths' runs."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(DATA, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            shape = [len(group) for group in json.load(handle)["strategies"]]
        uniform = [[f"1/{count}"] * count for count in shape]
        pure = [[1] + [0] * (count - 1) for count in shape]
        runs = [
            (command, "--profile", json.dumps(profile))
            for command in ("eval", "verify")
            for profile in (uniform, pure)
        ]
        runs += [
            ("oracle", "--m", "4", "--support-enum"),
            ("volume-check", "--m", "4"),
        ]
        for command, *flags in runs:
            name = os.path.basename(path)
            _record(digest, f"{command} {name} {' '.join(flags)}", [command, path, *flags])
    pennies = os.path.join(DATA, "matching_pennies.json")
    errors = (
        ("unreadable", ["eval", os.path.join("no-such-dir", "gämé.json"), "--profile", "[]"]),
        ("malformed", ["solve", pennies]),
        ("no-certificate", ["cells", pennies, "--m", "2"]),
    )
    for label, argv in errors:
        _record(digest, label, argv)
    return digest.hexdigest()


def test_cli_stdout_matches_the_recorded_digest(monkeypatch):
    monkeypatch.delenv("NASH_BUDGET", raising=False)
    with open(DIGEST, encoding="utf-8") as handle:
        assert stdout_digest() == handle.read().strip()


def test_other_cli_stdout_matches_the_recorded_digest(monkeypatch):
    monkeypatch.delenv("NASH_BUDGET", raising=False)
    with open(OTHER_DIGEST, encoding="utf-8") as handle:
        assert other_stdout_digest() == handle.read().strip()


if __name__ == "__main__":
    print(other_stdout_digest() if sys.argv[1:] == ["other"] else stdout_digest())

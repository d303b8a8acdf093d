"""JSON game files, profiles, and report serialization.

Games are plain JSON: strategy names per player plus one flattened payoff
tensor per player (last player's strategy fastest).  Scalars accept
integers and ``p/q`` or decimal strings; float literals are refused so
nothing inexact sneaks in.  All serialization is key-ordered and numbers
render as canonical fraction strings, which keeps repeat runs
byte-identical.  :func:`to_json` writes every JSON text the package
emits, byte for byte as ``json.dumps(data, indent=2)`` would.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

from . import scalars
from .errors import ParseError, ShapeError
from .game import Game, GainTable, MixedProfile
from .search import CellClassification, SolveReport, StageRecord


def _load_json(text: str, what: str) -> Any:
    # ValueError: a JSONDecodeError or an over-long integer; RecursionError:
    # nesting deeper than the interpreter's stack allows
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid {what}JSON: {exc}") from None


def parse_game(text: str) -> Game:
    raw = _load_json(text, "")
    if not isinstance(raw, dict):
        raise ParseError("game file must be a JSON object")
    strategies = raw.get("strategies")
    if not isinstance(strategies, list) or not strategies:
        raise ParseError("field 'strategies' must be a non-empty list")
    names: list[tuple[str, ...]] = []
    for i, group in enumerate(strategies):
        if not isinstance(group, list) or not group:
            raise ParseError(f"strategies[{i}] must be a non-empty list")
        if not all(isinstance(s, str) for s in group):
            raise ParseError(f"strategies[{i}] must contain strings")
        names.append(tuple(group))
    players = raw.get("players", len(names))
    if type(players) is not int or players != len(names):  # True == 1, 2.0 == 2
        raise ParseError(
            f"field 'players' must be the integer {len(names)}, one per strategy list"
        )
    payoffs_raw = raw.get("payoffs")
    if not isinstance(payoffs_raw, list) or len(payoffs_raw) != len(names):
        raise ParseError(
            f"field 'payoffs' must be a list of {len(names)} tensors"
        )
    size = math.prod(map(len, names))
    tensors = []
    for i, tensor in enumerate(payoffs_raw):
        if not isinstance(tensor, list):
            raise ParseError(f"payoffs[{i}] must be a list")
        if len(tensor) != size:
            raise ShapeError(
                f"payoffs[{i}] has {len(tensor)} entries, expected {size}"
            )
        parsed = []
        for j, entry in enumerate(tensor):
            try:
                parsed.append(scalars.parse_scalar(entry))
            except ParseError as exc:
                raise ParseError(f"payoffs[{i}][{j}]: {exc}") from None
        tensors.append(tuple(parsed))
    name = raw.get("name", "")
    return Game(strategy_names=tuple(names), payoffs=tuple(tensors), name=name)


def serialize_game(game: Game) -> str:
    data = {
        "name": game.name,
        "players": game.num_players,
        "strategies": [list(group) for group in game.strategy_names],
        "payoffs": [
            [scalars.format_scalar(v) for v in tensor] for tensor in game.payoffs
        ],
    }
    return to_json(data)


def to_json(data) -> str:
    """``data`` as ``json.dumps(data, indent=2)`` writes it, byte for byte,
    without the pure-Python encoder that ``indent`` selects there.  It
    takes ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``,
    ``bool``, ``None`` and finite ``float`` (a subclass is written as its
    base type); any other type is a ``TypeError``, and a NaN or infinity a
    ``ValueError``."""
    return _encode(data, "\n")


def _encode(value, indent: str) -> str:
    # indent: a newline and the spaces before this value's closing bracket
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        # a key that is not a str is a TypeError in encode_basestring_ascii
        items = [
            encode_basestring_ascii(k) + ": " + _encode(v, inner)
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"out of range float value {value!r} is not JSON compliant")
        return float.__repr__(value)
    for base in (str, int, float, dict, list, tuple):  # a subclass, as its base
        if isinstance(value, base):
            return _encode(base(value), indent)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def parse_profile(text: str, game: Game) -> MixedProfile:
    raw = _load_json(text, "profile ")
    if not isinstance(raw, list) or len(raw) != game.num_players:
        raise ParseError(
            f"profile must be a list of {game.num_players} strategy vectors"
        )
    dists = []
    for i, vector in enumerate(raw):
        if not isinstance(vector, list) or len(vector) != game.shape[i]:
            raise ParseError(
                f"profile[{i}] must be a list of {game.shape[i]} numbers"
            )
        dists.append(tuple(scalars.parse_scalar(v) for v in vector))
    return MixedProfile(tuple(dists))


def profile_json(sigma: MixedProfile) -> list:
    return [[scalars.format_scalar(p) for p in vector] for vector in sigma.dist]


def gain_table_json(table: GainTable) -> dict:
    return {
        "gains": [[scalars.format_scalar(g) for g in row] for row in table.gains],
        "best": [scalars.format_scalar(b) for b in table.best],
        "total": scalars.format_scalar(table.total),
        "up": list(table.up),
    }


def classification_json(classification: CellClassification) -> dict:
    data: dict[str, Any] = {"case": classification.case}
    if classification.player is not None:
        data["player"] = classification.player
    if classification.witnesses is not None:
        data["witnesses"] = [profile_json(w) for w in classification.witnesses]
    return data


def _optional(convert, value):
    return None if value is None else convert(value)


def stage_json(record: StageRecord, include_timing: bool) -> dict:
    data: dict[str, Any] = {
        "stage": record.stage,
        "resolutions": list(record.resolutions),
        "cells_scanned": record.cells_scanned,
        "pre_equilibria_found": record.pre_equilibria_found,
        "chosen_cell": _optional(list, record.chosen_cell),
        "classification": _optional(classification_json, record.classification),
        "representative": _optional(profile_json, record.representative),
        "total_gain": _optional(scalars.format_scalar, record.total_gain),
        "max_regret": _optional(scalars.format_scalar, record.max_regret),
        "diameter": record.diameter,
    }
    if include_timing:
        data["wall_clock_s"] = record.wall_clock_s
    return data


def report_json(
    report: SolveReport, game: Game, include_timing: bool = False
) -> dict:
    """Report dict; timing is opt-in so stdout stays deterministic."""
    data: dict[str, Any] = {
        "game": game.name,
        "numeric_mode": "rational",  # the only arithmetic; a fixed report field
        "eps_target": scalars.format_scalar(report.eps_target),
        "budget": report.budget,
        "stages": [stage_json(s, include_timing) for s in report.stages],
        "final": {
            "profile": profile_json(report.final_profile),
            "max_regret": scalars.format_scalar(report.final_max_regret),
            "gain_table": gain_table_json(report.final_gain_table),
            "converged": report.converged,
        },
    }
    if include_timing:
        from . import __version__  # here: the package imports this module

        data["tool"] = {"name": "cellnash", "version": __version__}
    return data


def load_report(text: str) -> dict:
    raw = _load_json(text, "report ")
    if not isinstance(raw, dict) or "final" not in raw:
        raise ParseError("report must be an object with a 'final' section")
    return raw

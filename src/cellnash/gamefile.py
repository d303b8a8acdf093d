"""JSON game files, profiles, and report serialization.

Games are plain JSON: strategy names per player plus one flattened payoff
tensor per player (last player's strategy fastest).  Scalars accept
integers and ``p/q`` or decimal strings; rational mode refuses floats so
nothing inexact sneaks in.  All serialization is key-ordered and
rational-mode numbers render as canonical fraction strings, which keeps
repeat runs byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from . import scalars
from .errors import ParseError, ShapeError
from .game import Game, GainTable, MixedProfile
from .search import CellClassification, SolveReport, StageRecord


def parse_game(text: str) -> Game:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ParseError(f"invalid JSON: {exc}") from None
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
    if players != len(names):
        raise ParseError(
            f"field 'players' is {players} but {len(names)} strategy lists given"
        )
    payoffs_raw = raw.get("payoffs")
    if not isinstance(payoffs_raw, list) or len(payoffs_raw) != len(names):
        raise ParseError(
            f"field 'payoffs' must be a list of {len(names)} tensors"
        )
    size = 1
    for group in names:
        size *= len(group)
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
    if not isinstance(name, str):
        raise ParseError("field 'name' must be a string")
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
    return json.dumps(data, indent=2)


def parse_profile(text: str, game: Game) -> MixedProfile:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ParseError(f"invalid profile JSON: {exc}") from None
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


def stage_json(record: StageRecord, include_timing: bool) -> dict:
    data: dict[str, Any] = {
        "stage": record.stage,
        "resolutions": list(record.resolutions),
        "cells_scanned": record.cells_scanned,
        "pre_equilibria_found": record.pre_equilibria_found,
        "chosen_cell": (
            list(record.chosen_cell) if record.chosen_cell is not None else None
        ),
        "classification": (
            classification_json(record.classification)
            if record.classification is not None
            else None
        ),
        "representative": (
            profile_json(record.representative)
            if record.representative is not None
            else None
        ),
        "total_gain": (
            scalars.format_scalar(record.total_gain)
            if record.total_gain is not None
            else None
        ),
        "max_regret": (
            scalars.format_scalar(record.max_regret)
            if record.max_regret is not None
            else None
        ),
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
        "numeric_mode": scalars.get_numeric_mode(),
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
        data["tool"] = {"name": "cellnash", "version": _package_version()}
    return data


def _package_version() -> str:
    from . import __version__

    return __version__


def load_report(text: str) -> dict:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ParseError(f"invalid report JSON: {exc}") from None
    if not isinstance(raw, dict) or "final" not in raw:
        raise ParseError("report must be an object with a 'final' section")
    return raw

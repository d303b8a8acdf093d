"""Command-line front end.

Subcommands mirror the library: ``solve`` runs the refinement loop,
``eval`` prints a profile's gain table and label, ``cells`` lists the
certificates at one resolution, ``volume-check`` audits the single-player
volume identity, ``oracle`` runs the independent grid scan, and
``verify`` re-checks a claimed equilibrium.

Exit codes: 0 on success (solve converged, profile verified), 2 when the
machinery ran but the goal was not met (no certificate, no convergence,
verification failed, volume identity broken), 1 on bad input.  Output is
a single JSON object on stdout; in rational mode it is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from . import scalars
from .errors import CellNashError, ParameterOutOfRange, ParseError
from .game import Game, gain_table
from .gamefile import (
    gain_table_json,
    parse_game,
    parse_profile,
    profile_json,
    report_json,
)
from .labeling import root_label
from .oracle import grid_min_regret, support_enumeration_2p, verify_profile
from .search import find_pre_equilibria, representative, scan_cells, solve
from .subdivision import cell_diameter, player_triangulations
from .volume import moved_volumes, total_volume_polynomial

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_MET = 2


def _read_game(path: str) -> Game:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CellNashError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None
    return parse_game(text)


def _dumps(data: dict) -> str:
    # float mode can overflow to inf (or nan), which JSON cannot carry
    try:
        return json.dumps(data, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ParameterOutOfRange(
            "result is not a finite number: float arithmetic overflowed"
        ) from None


def _emit(data: dict) -> None:
    sys.stdout.write(_dumps(data))


def _emit_error(exc: CellNashError) -> int:
    payload: dict = {"error": {"code": exc.code, "message": str(exc)}}
    if hasattr(exc, "resolutions_tried"):
        payload["error"]["resolutions_tried"] = exc.resolutions_tried
        payload["error"]["cells_scanned"] = exc.cells_scanned
    _emit(payload)
    return (
        EXIT_NOT_MET
        if exc.code in ("no-pre-equilibrium-found",)
        else EXIT_INPUT_ERROR
    )


def _cmd_solve(args) -> int:
    game = _read_game(args.game)
    eps = scalars.parse_scalar(args.eps)
    report = solve(
        game,
        eps_target=eps,
        m0=args.m0,
        refine_factor=args.factor,
        max_stages=args.max_stages,
        budget=args.budget,
    )
    text = _dumps(report_json(report, game, include_timing=False))
    full = _dumps(report_json(report, game, include_timing=True)) if args.out else None
    sys.stdout.write(text)
    if full is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(full)
    return EXIT_OK if report.converged else EXIT_NOT_MET


def _cmd_eval(args) -> int:
    game = _read_game(args.game)
    sigma = parse_profile(args.profile, game)
    table = gain_table(game, sigma)
    label = root_label(game, sigma)
    data = {
        "game": game.name,
        "profile": profile_json(sigma),
        **gain_table_json(table),
        "max_regret": scalars.format_scalar(max(table.best)),
        "root": [
            game.strategy_names[i][s] for i, s in enumerate(label.choices)
        ],
    }
    _emit(data)
    return EXIT_OK


def _cmd_cells(args) -> int:
    game = _read_game(args.game)
    certs = find_pre_equilibria(game, args.m, budget=args.budget)
    # a simplex with k strategies has m**(k-1) cells at resolution m
    total_cells = math.prod(args.m ** (count - 1) for count in game.shape)
    entries = []
    for cert in certs:
        rep = representative(cert)
        table = gain_table(game, rep)
        entries.append(
            {
                "cell": list(cert.cell.factor),
                "labels": [
                    [game.strategy_names[i][s] for i, s in enumerate(label.choices)]
                    for label in cert.labels
                ],
                "representative": profile_json(rep),
                "total_gain": scalars.format_scalar(table.total),
                "max_regret": scalars.format_scalar(max(table.best)),
                "diameter": cell_diameter(cert.cell),
            }
        )
    _emit(
        {
            "game": game.name,
            "resolutions": [args.m] * game.num_players,
            "cells_scanned": total_cells,
            "count": len(certs),
            "certs": entries,
        }
    )
    return EXIT_OK if certs else EXIT_NOT_MET


def _cmd_volume_check(args) -> int:
    game = _read_game(args.game)
    # [0], not unpacking: a multi-player game must reach the
    # not-single-player error in total_volume_polynomial
    tri = player_triangulations(game, args.m)[0]
    result = total_volume_polynomial(game, tri)
    cert_cells = [cert.cell.factor[0] for cert in scan_cells(game, (tri,))]
    all_certified = all(
        idx in cert_cells for idx in result.nonzero_cells_at_one
    )
    if args.samples_out:
        dim = tri.dim
        samples = [scalars.exact_div(k, dim + 2) for k in range(dim + 3)]
        with open(args.samples_out, "w", encoding="utf-8") as handle:
            handle.write("t,g_total,cell_index,cell_value\n")
            for t in samples:
                g_total = result.value_at(t)
                for idx, value in enumerate(moved_volumes(game, tri, t)):
                    handle.write(
                        f"{scalars.format_scalar(t)},"
                        f"{scalars.format_scalar(g_total)},"
                        f"{idx},{scalars.format_scalar(value)}\n"
                    )
    _emit(
        {
            "game": game.name,
            "m": args.m,
            "cells": len(tri.cells),
            "constant": result.is_constant,
            "g0": scalars.format_scalar(result.value_at(0)),
            "g1": scalars.format_scalar(result.value_at(1)),
            "coefficients": [scalars.format_scalar(c) for c in result.total],
            "nonzero_cells_at_one": list(result.nonzero_cells_at_one),
            "certified_cells": cert_cells,
            "all_nonzero_certified": all_certified,
        }
    )
    ok = result.is_constant and result.value_at(0) == 1 and all_certified
    return EXIT_OK if ok else EXIT_NOT_MET


def _cmd_oracle(args) -> int:
    game = _read_game(args.game)
    result = grid_min_regret(game, args.m, budget=args.budget)
    data = {
        "game": game.name,
        "method": result.method,
        "m": args.m,
        "profile": profile_json(result.profile),
        "max_regret": scalars.format_scalar(result.max_regret),
    }
    if args.support_enum:
        enum = support_enumeration_2p(game)
        data["support_equilibria"] = [profile_json(e) for e in enum.equilibria]
        data["degenerate"] = enum.degenerate
    _emit(data)
    return EXIT_OK


def _cmd_verify(args) -> int:
    game = _read_game(args.game)
    sigma = parse_profile(args.profile, game)
    eps = scalars.parse_scalar(args.eps)
    ok, table = verify_profile(game, sigma, eps)
    _emit(
        {
            "game": game.name,
            "profile": profile_json(sigma),
            "eps": scalars.format_scalar(eps),
            "equilibrium": ok,
            "max_regret": scalars.format_scalar(max(table.best)),
            **gain_table_json(table),
        }
    )
    return EXIT_OK if ok else EXIT_NOT_MET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellnash",
        description="equilibrium search over labeled simplicial grids",
    )
    parser.add_argument(
        "--mode",
        choices=(scalars.RATIONAL, scalars.FLOAT),
        default=scalars.RATIONAL,
        help="numeric mode (default: rational)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="refine grids until eps is met")
    p_solve.add_argument("game")
    p_solve.add_argument("--eps", required=True, help="target regret, e.g. 1/10")
    p_solve.add_argument("--m0", type=int, default=2)
    p_solve.add_argument("--factor", type=int, default=2)
    p_solve.add_argument("--max-stages", type=int, default=6)
    p_solve.add_argument("--budget", type=int, default=None)
    p_solve.add_argument("--out", help="write a full report (with timings) here")
    p_solve.set_defaults(func=_cmd_solve)

    p_eval = sub.add_parser("eval", help="gain table and label at a profile")
    p_eval.add_argument("game")
    p_eval.add_argument("--profile", required=True, help="JSON strategy vectors")
    p_eval.set_defaults(func=_cmd_eval)

    p_cells = sub.add_parser("cells", help="list certificates at a resolution")
    p_cells.add_argument("game")
    p_cells.add_argument("--m", type=int, required=True)
    p_cells.add_argument("--budget", type=int, default=None)
    p_cells.set_defaults(func=_cmd_cells)

    p_vol = sub.add_parser(
        "volume-check", help="audit the single-player volume identity"
    )
    p_vol.add_argument("game")
    p_vol.add_argument("--m", type=int, required=True)
    p_vol.add_argument("--samples-out", help="write a CSV sample table here")
    p_vol.set_defaults(func=_cmd_volume_check)

    p_oracle = sub.add_parser("oracle", help="independent grid scan")
    p_oracle.add_argument("game")
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--budget", type=int, default=None)
    p_oracle.add_argument(
        "--support-enum",
        action="store_true",
        help="also run exact support enumeration (2-player games)",
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="re-check a claimed equilibrium")
    p_verify.add_argument("game")
    p_verify.add_argument("--profile", required=True)
    p_verify.add_argument("--eps", default="0")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    scalars.set_numeric_mode(args.mode)
    try:
        return args.func(args)
    except CellNashError as exc:
        return _emit_error(exc)


def main() -> None:
    sys.exit(run_cli())

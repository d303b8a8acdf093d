"""The three workloads: seeded inputs, fixed op lists, canonical outputs and
the independent checks every op's output must pass.

Functions take the imported ``cellnash`` package as ``cn`` so that each
set-up can import it afresh (set-up time includes the import).  Ops look
their library functions up through ``cn`` at call time, which lets the
tracer's wrappers see every call.

Workload choice (see METRICS.md for the full rationale):

* ``fixture-solve`` is the everyday CLI path on coarse grids: argparse,
  file read, a few small stages, gain tables, diameters and the JSON emit
  all share the time.
* ``deep-scan`` walks full grid ladders at eps 0, so nearly all of its time
  is the cell walk and vertex labeling.
* ``oracle-audit`` runs no search scan at all; it is the oracle/linear
  algebra workload and the no-change check for labeler and scan work.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

FIXTURE_SEED = 104729
HELD_OUT_SEED = 7

NAMED_PAYOFFS = (
    ("matching-pennies", ("H", "T"), ((1, -1, -1, 1), (-1, 1, 1, -1))),
    (
        "rock-paper-scissors",
        ("R", "P", "S"),
        ((0, -1, 1, 1, 0, -1, -1, 1, 0), (0, 1, -1, -1, 0, 1, 1, -1, 0)),
    ),
    ("prisoners-dilemma", ("C", "D"), ((3, 0, 5, 1), (3, 5, 0, 1))),
    ("battle-of-sexes", ("A", "B"), ((2, 0, 0, 1), (1, 0, 0, 2))),
)

# ten single-player games, 2 and 3 strategies, ties included
ONE_PLAYER_PAYOFFS = (
    (0, 1), (1, 0), (0, 0), (3, 3), (-1, 2),
    (0, 1, 2), (2, 1, 0), (1, 1, 0), (0, 0, 0), (2, 0, 2),
)

# fixture-solve runs rounds of the test suite's random games (20 2x2 and
# 5 2x2x2 each): FIXED_ROUNDS drawn from FIXTURE_SEED, the first of which
# is the test suite itself, then SEEDED_ROUNDS drawn from the run's seed.
# Whether each 2x2x2 game needs the m=8 stage swings one round's time by
# half, so the seed's share is kept to a quarter of the pass.
FIXED_ROUNDS = 24
SEEDED_ROUNDS = 8
ROUND_GAMES = 25

# deep-scan: fixtures that never certify, each with its grid-ladder cap
DEEP_FIXED = (
    ("random-2x2-11", 64),
    ("random-2x2-13", 64),
    ("random-2x2-16", 64),
    ("random-2x2x2-4", 16),
)
# deep-scan: seeded games, (shape, cap)
DEEP_SEEDED = (((3, 3), 16), ((3, 3, 3), 4))

ORACLE_GRID_SHAPES = ((3, 3), (2, 2, 2))
ORACLE_GRID_M = 8
VOLUME_RESOLUTIONS = (2, 4, 8)
EXHAUSTIVE_VALUES = (-1, 0, 1)
# digests of the exhaustive 2x2 games are recorded per block of this many
EXHAUSTIVE_BLOCK = 81

PARAMETERS = {
    "fixture-solve": {
        "games": f"4 named + {FIXED_ROUNDS} fixed and {SEEDED_ROUNDS} seeded rounds of "
                 "(20 random 2x2 + 5 random 2x2x2), payoffs in [-5, 5]",
        "op": "cli solve <file> --eps range/10 --max-stages 3",
    },
    "deep-scan": {
        "fixed": {name: f"m0=2..{cap}" for name, cap in DEEP_FIXED},
        "seeded": [f"{'x'.join(map(str, s))} m0=2..{cap}" for s, cap in DEEP_SEEDED],
        "op": "library solve at eps 0, refine factor 2",
    },
    "oracle-audit": {
        "exhaustive_2x2": f"payoffs in {list(EXHAUSTIVE_VALUES)}, 6561 games",
        "grid_min_regret": f"seeded 3x3 and 2x2x2 at m={ORACLE_GRID_M}",
        "volume": f"10 single-player games at m in {list(VOLUME_RESOLUTIONS)}",
    },
}

# the cheapest ops of each workload, for the smoke setting
SMOKE_OPS = {
    "fixture-solve": lambda op: op.op_id in {n for n, _, _ in NAMED_PAYOFFS},
    "deep-scan": lambda op: op.op_id == "random-2x2-11",
    "oracle-audit": lambda op: op.group in ("exhaustive/0", "volume"),
}


@dataclass
class Op:
    op_id: str
    group: str  # digest group: ops whose canonical outputs are hashed together
    seeded: bool  # inputs depend on the seed, so digests are per seed
    game: Any
    call: Callable[[], Any]  # the timed call; returns the raw output
    kind: str  # selects canonical(), check() and facts()
    eps: Any = None


@dataclass
class Crash:
    """An exception the op's contract does not document."""

    error: str


# ---------------------------------------------------------------- inputs


def make_game(cn, shape, payoffs, name=""):
    names = tuple(tuple(f"s{j}" for j in range(k)) for k in shape)
    return cn.Game(strategy_names=names, payoffs=payoffs, name=name)


def random_game(cn, rng, shape, name="", low=-5, high=5):
    """The test suite's recipe: one flat integer tensor per player."""
    size = 1
    for k in shape:
        size *= k
    payoffs = tuple(
        tuple(rng.randint(low, high) for _ in range(size)) for _ in shape
    )
    return make_game(cn, shape, payoffs, name=name)


def random_rounds(cn, rng, rounds, prefix="random"):
    """Rounds of 20 random 2x2 and 5 random 2x2x2 games from one stream."""
    games = []
    for r in range(rounds):
        tag = f"r{r}-" if r else ""
        for idx in range(20):
            games.append(random_game(cn, rng, (2, 2), name=f"{prefix}-2x2-{tag}{idx}"))
        for idx in range(5):
            games.append(random_game(cn, rng, (2, 2, 2), name=f"{prefix}-2x2x2-{tag}{idx}"))
    return games


def named_games(cn):
    return [
        cn.Game(strategy_names=(names, names), payoffs=payoffs, name=name)
        for name, names, payoffs in NAMED_PAYOFFS
    ]


def fixture_suite(cn):
    """Exactly the test suite's fixture list: the named games plus one
    round drawn from ``FIXTURE_SEED``."""
    return named_games(cn) + random_rounds(cn, random.Random(FIXTURE_SEED), 1)


def payoff_range(game):
    lo = min(min(t) for t in game.payoffs)
    hi = max(max(t) for t in game.payoffs)
    return hi - lo


def _write_and_parse(cn, workdir, games):
    """Write each game to its own file and parse it back; returns the
    parsed games with their paths."""
    out = []
    for idx, game in enumerate(games):
        path = os.path.join(workdir, f"{idx:03d}-{game.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cn.serialize_game(game))
        with open(path, "r", encoding="utf-8") as handle:
            out.append((cn.parse_game(handle.read()), path))
    return out


def _write_and_parse_lines(cn, path, games):
    """One compact game per line, for the thousands of exhaustive games."""
    with open(path, "w", encoding="utf-8") as handle:
        for game in games:
            handle.write(json.dumps(json.loads(cn.serialize_game(game))) + "\n")
    with open(path, "r", encoding="utf-8") as handle:
        return [cn.parse_game(line) for line in handle]


# ---------------------------------------------------------------- op calls


def _cli_solve(cn, argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cn.cli.run_cli(argv)
    return code, buffer.getvalue()


def _library_solve(cn, game, max_stages):
    try:
        return cn.search.solve(game, 0, m0=2, refine_factor=2, max_stages=max_stages)
    except cn.NoPreEquilibriumFound as exc:  # documented: no stage certified
        return exc


def _exhaustive(cn, game, pures):
    flags = tuple(cn.game.is_equilibrium(game, sigma, 0) for sigma in pures)
    enum = cn.oracle.support_enumeration_2p(game)
    tables = tuple(cn.game.gain_table(game, eq) for eq in enum.equilibria)
    return flags, enum, tables


def _grid(cn, game):
    return cn.oracle.grid_min_regret(game, ORACLE_GRID_M)


def _volume(cn, game, m):
    tri = cn.subdivision.triangulate(game.shape[0] - 1, m)
    result = cn.volume.total_volume_polynomial(game, tri)
    half = Fraction(1, 2)
    moved = sum(
        cn.volume.moved_cell_volume(game, tri, idx, half)
        for idx in range(len(tri.cells))
    )
    return len(tri.cells), result, moved


# ---------------------------------------------------------------- set-up


def setup(cn, name, seed, workdir):
    """Generate the workload from ``seed``, write and parse its game files,
    and return its op list.  This is the work ``setup_s`` measures."""
    if name == "fixture-solve":
        ops = []
        named = named_games(cn)
        fixed = random_rounds(cn, random.Random(FIXTURE_SEED), FIXED_ROUNDS)
        # a stream of its own, so the default seed does not repeat the fixed rounds
        extra = random_rounds(cn, random.Random(f"fixture-solve/{seed}"), SEEDED_ROUNDS, "seeded")
        suite = named + fixed + extra
        for idx, (game, path) in enumerate(_write_and_parse(cn, workdir, suite)):
            eps = cn.scalars.format_scalar(
                cn.scalars.exact_div(payoff_range(game), 10)
            )
            argv = ["solve", path, "--eps", eps, "--max-stages", "3"]
            seeded = idx >= len(named) + len(fixed)
            rnd = idx - len(named)
            group = game.name if rnd < 0 else f"round/{rnd // ROUND_GAMES}"
            ops.append(
                Op(game.name, group, seeded, game,
                   lambda argv=argv: _cli_solve(cn, argv), "cli-solve",
                   eps=cn.scalars.parse_scalar(eps))
            )
        return ops
    if name == "deep-scan":
        fixtures = {g.name: g for g in fixture_suite(cn)}
        rng = random.Random(seed)
        games = [(fixtures[n], cap, False) for n, cap in DEEP_FIXED]
        for idx, (shape, cap) in enumerate(DEEP_SEEDED):
            label = "x".join(map(str, shape))
            games.append((random_game(cn, rng, shape, f"seeded-{label}-{idx}"), cap, True))
        parsed = _write_and_parse(cn, workdir, [g for g, _, _ in games])
        ops = []
        for (game, _), (_, cap, seeded) in zip(parsed, games):
            stages = cap.bit_length() - 1  # m = 2, 4, ..., cap
            ops.append(
                Op(game.name, game.name, seeded, game,
                   lambda g=game, s=stages: _library_solve(cn, g, s), "solve", eps=0)
            )
        return ops
    if name == "oracle-audit":
        names = (("s0", "s1"), ("s0", "s1"))
        exhaustive = [
            cn.Game(names, (u1, u2), name=f"exhaustive-{idx}")
            for idx, (u1, u2) in enumerate(
                itertools.product(itertools.product(EXHAUSTIVE_VALUES, repeat=4), repeat=2)
            )
        ]
        pures = tuple(
            cn.MixedProfile(((1 - a, a), (1 - b, b))) for a in (0, 1) for b in (0, 1)
        )
        ops = []
        path = os.path.join(workdir, "exhaustive-2x2.jsonl")
        for idx, game in enumerate(_write_and_parse_lines(cn, path, exhaustive)):
            ops.append(
                Op(game.name, f"exhaustive/{idx // EXHAUSTIVE_BLOCK}", False, game,
                   lambda g=game: _exhaustive(cn, g, pures), "exhaustive")
            )
        rng = random.Random(seed)
        seeded = [
            random_game(cn, rng, shape, f"grid-{'x'.join(map(str, shape))}")
            for shape in ORACLE_GRID_SHAPES
        ]
        for game, _ in _write_and_parse(cn, workdir, seeded):
            ops.append(Op(game.name, game.name, True, game, lambda g=game: _grid(cn, g), "grid"))
        singles = [
            make_game(cn, (len(p),), (p,), name=f"one-player-{i}")
            for i, p in enumerate(ONE_PLAYER_PAYOFFS)
        ]
        for game, _ in _write_and_parse(cn, workdir, singles):
            for m in VOLUME_RESOLUTIONS:
                ops.append(
                    Op(f"{game.name}@m={m}", "volume", False, game,
                       lambda g=game, m=m: _volume(cn, g, m), "volume")
                )
        return ops
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- outputs


def solve_data(cn, op, raw):
    """The op's result as the CLI's stdout JSON object, plus the exit code."""
    if op.kind == "cli-solve":
        code, text = raw
        return code, json.loads(text)
    if isinstance(raw, cn.NoPreEquilibriumFound):
        return 2, {
            "error": {
                "code": raw.code,
                "message": str(raw),
                "resolutions_tried": raw.resolutions_tried,
                "cells_scanned": raw.cells_scanned,
            }
        }
    data = cn.gamefile.report_json(raw, op.game, include_timing=False)
    return (0 if raw.converged else 2), data


def canonical(cn, op, raw):
    """Canonical rational-mode text of one op's output."""
    if isinstance(raw, Crash):
        return f"crash: {raw.error}\n"
    if op.kind == "cli-solve":
        code, text = raw
        return f"exit {code}\n{text}"
    if op.kind == "solve":
        code, data = solve_data(cn, op, raw)
        return f"exit {code}\n{json.dumps(data, indent=2)}\n"
    fmt = cn.scalars.format_scalar
    if op.kind == "exhaustive":
        flags, enum, tables = raw
        data = {
            "pure_equilibria": list(flags),
            "equilibria": [cn.gamefile.profile_json(e) for e in enum.equilibria],
            "degenerate": enum.degenerate,
            "gain_tables": [cn.gamefile.gain_table_json(t) for t in tables],
        }
    elif op.kind == "grid":
        data = {
            "profile": cn.gamefile.profile_json(raw.profile),
            "max_regret": fmt(raw.max_regret),
            "method": raw.method,
        }
    else:
        cells, result, moved = raw
        data = {
            "cells": cells,
            "coefficients": [fmt(c) for c in result.total],
            "cell_polys": [[fmt(c) for c in p] for p in result.cell_polys],
            "nonzero_cells_at_one": list(result.nonzero_cells_at_one),
            "moved_total_at_half": fmt(moved),
        }
    return json.dumps(data, sort_keys=True) + "\n"


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def _product_cells(cn, game, resolutions):
    total = 1
    for tri in cn.subdivision.player_triangulations(game, list(resolutions)):
        total *= len(tri.cells)
    return total


def check(cn, op, raw):
    """Independent re-verification; returns a list of problems."""
    if isinstance(raw, Crash):
        return [f"undocumented exception: {raw.error}"]
    if op.kind in ("cli-solve", "solve"):
        return _check_solve(cn, op, raw)
    if op.kind == "exhaustive":
        return _check_exhaustive(cn, op, raw)
    if op.kind == "grid":
        ok, table = cn.oracle.verify_profile(op.game, raw.profile, raw.max_regret)
        if not ok or max(table.best) != raw.max_regret:
            return ["grid optimum does not re-verify"]
        return []
    cells, result, moved = raw
    problems = []
    if not result.is_constant or result.value_at(0) != 1 or result.value_at(1) != 1:
        problems.append("total volume is not identically 1")
    if moved != 1:
        problems.append(f"moved volumes sum to {moved} at t=1/2")
    return problems


def _check_solve(cn, op, raw):
    game = op.game
    code, data = solve_data(cn, op, raw)
    if "error" in data:
        err = data["error"]
        if err.get("code") != "no-pre-equilibrium-found" or code != 2:
            return [f"undocumented outcome: exit {code}, {err.get('code')}"]
        expected = sum(_product_cells(cn, game, r) for r in err["resolutions_tried"])
        if err["cells_scanned"] != expected:
            return [f"cells_scanned {err['cells_scanned']} != {expected}"]
        return []
    problems = []
    full = set(itertools.product(*(range(k) for k in game.shape)))
    for stage in data["stages"]:
        res = stage["resolutions"]
        if stage["cells_scanned"] != _product_cells(cn, game, res):
            problems.append(f"stage {stage['stage']}: wrong cells_scanned")
        if stage["chosen_cell"] is None:
            continue
        tris = cn.subdivision.player_triangulations(game, res)
        cell = cn.subdivision.build_product_cell(tris, stage["chosen_cell"])
        labels = [cn.labeling.root_label(game, p).choices for p in cell.vertex_profiles]
        if len(labels) != len(full) or set(labels) != full:
            problems.append(f"stage {stage['stage']}: labels are not a bijection")
    final = data["final"]
    parse = cn.scalars.parse_scalar
    sigma = cn.MixedProfile(tuple(tuple(parse(w) for w in row) for row in final["profile"]))
    ok, table = cn.oracle.verify_profile(game, sigma, op.eps)
    if cn.scalars.format_scalar(max(table.best)) != final["max_regret"]:
        problems.append("final max regret does not re-verify")
    if ok != final["converged"] or code != (0 if ok else 2):
        problems.append(f"converged={final['converged']} exit {code}, verify says {ok}")
    return problems


def _check_exhaustive(cn, op, raw):
    flags, enum, tables = raw
    u1, u2 = op.game.payoffs
    problems = []
    for (a, b), flag in zip(((0, 0), (0, 1), (1, 0), (1, 1)), flags):
        direct = (
            u1[(1 - a) * 2 + b] <= u1[a * 2 + b]
            and u2[a * 2 + (1 - b)] <= u2[a * 2 + b]
        )
        if flag != direct:
            problems.append(f"pure profile {(a, b)}: is_equilibrium disagrees")
    if not enum.equilibria:
        problems.append("support enumeration found no equilibrium")
    if any(t.total != 0 for t in tables):
        problems.append("an enumerated equilibrium has nonzero total gain")
    return problems


def facts(cn, op, raw):
    """Deterministic counts from the op's report: product cells scanned,
    stages, certificates, and vertex profiles of the scanned grids."""
    out = {"cells": 0, "stages": 0, "certs": 0, "profiles": 0, "volume_cells": 0}
    if isinstance(raw, Crash):
        return out
    if op.kind == "volume":
        out["volume_cells"] = raw[0]  # simplex cells of the volume audit
        return out
    if op.kind not in ("cli-solve", "solve"):
        return out
    _, data = solve_data(cn, op, raw)
    if "error" in data:
        tried = data["error"]["resolutions_tried"]
        out["cells"] = data["error"]["cells_scanned"]
    else:
        tried = [s["resolutions"] for s in data["stages"]]
        out["cells"] = sum(s["cells_scanned"] for s in data["stages"])
        out["certs"] = sum(s["pre_equilibria_found"] for s in data["stages"])
    out["stages"] = len(tried)
    for res in tried:
        tris = cn.subdivision.player_triangulations(op.game, res)
        out["profiles"] += cn.subdivision.vertex_profile_count(tris)
    return out

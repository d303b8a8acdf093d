"""Payoff evaluation, deviation gains, and the equilibrium predicate."""

import copy
import itertools
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellnash import (
    Game,
    MixedProfile,
    PureProfile,
    deviation_payoffs,
    errors,
    evaluate_payoff,
    game as game_module,
    gain_table,
    grid_labels,
    is_equilibrium,
    max_regret,
    player_triangulations,
    representative,
    scalars,
    scan_cells,
)
from cellnash import search as search_module

from conftest import (
    as_float_game,
    count_calls,
    label_corpus,
    random_game,
    random_profile,
)
from grid_reference import deviation_profile

import random


def test_game_validation_rejects_bad_tensor_length():
    with pytest.raises(errors.ShapeError):
        Game(strategy_names=(("a", "b"), ("a", "b")), payoffs=((1, 2, 3), (0, 0, 0, 0)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_game_validation_rejects_non_finite_payoffs(bad):
    for payoffs in (((bad, 0),), ((0.5, bad),), ((1, Fraction(1, 3), bad),)):
        names = (tuple("abc"[: len(payoffs[0])]),)
        with pytest.raises(errors.ParseError, match=f"payoff {bad} is not finite") as info:
            Game(strategy_names=names, payoffs=payoffs)
        assert isinstance(info.value, ValueError)
    # a second player's tensor is checked as well
    with pytest.raises(errors.ParseError, match="not finite"):
        Game(strategy_names=(("a",), ("a", "b")), payoffs=((0, 0), (1.5, bad)))


@pytest.mark.parametrize(
    "bad", ["x", None, Decimal("0.5"), 1j], ids=["str", "None", "Decimal", "complex"]
)
def test_game_validation_rejects_non_numbers(bad):
    for payoffs in (((bad, 0),), ((0.5, bad),), ((1, Fraction(1, 3), bad),)):
        names = (tuple("abc"[: len(payoffs[0])]),)
        with pytest.raises(errors.ParseError) as info:
            Game(strategy_names=names, payoffs=payoffs)
        assert str(info.value) == f"payoff {bad!r} is not a number"
    with pytest.raises(errors.ParseError, match="not a number"):
        Game(strategy_names=(("a",), ("a", "b")), payoffs=((0, 0), (True, bad)))


def test_game_validation_rejects_list_tensors():
    # a list tensor would make the frozen game unhashable
    one, two = (("a", "b"),), (("a",), ("a", "b"))
    for names, payoffs, message in (
        (one, ([1, 2],), "payoff tensor 0 is a list, not a tuple"),
        (two, ((1, 2), [3, 4]), "payoff tensor 1 is a list, not a tuple"),
        (two, [(1, 2), (3, 4)], "payoffs is a list, not a tuple"),
        (one, [[1, 2]], "payoffs is a list, not a tuple"),
    ):
        with pytest.raises(errors.ShapeError) as info:
            Game(strategy_names=names, payoffs=payoffs)
        assert str(info.value) == message
    hash(Game(strategy_names=(("a", "b"),), payoffs=((1, 2),)))


def test_payoffs_that_are_not_a_tuple_are_refused_before_len():
    # len of a generator would escape as a bare TypeError
    names = (("a", "b"),)
    for payoffs, message in (
        ((t for t in [(1, 2)]), "payoffs is not a sequence"),
        ([(1, 2)], "payoffs is a list, not a tuple"),
    ):
        with pytest.raises(errors.ShapeError) as info:
            Game(strategy_names=names, payoffs=payoffs)
        assert str(info.value) == message


def test_game_validation_rejects_empty_and_miscounted_shapes():
    for names, payoffs, message in (
        ((), (), "a game needs at least one player"),
        (((),), ((),), "every player needs at least one strategy"),
        ((("a",), ()), ((1,), (1,)), "every player needs at least one strategy"),
        ((("a", "b"),), ((1, 2), (3, 4)), "expected 1 payoff tensors, got 2"),
        ((("a",), ("b",)), ((1,),), "expected 2 payoff tensors, got 1"),
    ):
        with pytest.raises(errors.ShapeError) as info:
            Game(strategy_names=names, payoffs=payoffs)
        assert str(info.value) == message


def test_game_validation_rejects_duplicate_names():
    with pytest.raises(errors.ShapeError):
        Game(strategy_names=(("a", "a"),), payoffs=((1, 2),))


def test_payoff_lookup_row_major(mp):
    # last player's strategy varies fastest
    assert mp.payoff(0, (0, 0)) == 1
    assert mp.payoff(0, (0, 1)) == -1
    assert mp.payoff(0, (1, 0)) == -1
    assert mp.payoff(1, (0, 1)) == 1


def test_payoff_index_out_of_range(mp):
    with pytest.raises(errors.IndexOutOfRange):
        mp.payoff(0, (0, 2))
    with pytest.raises(errors.IndexOutOfRange):
        mp.payoff(2, (0, 0))


def test_mixed_profile_rejects_negative():
    with pytest.raises(errors.InvalidDistribution):
        MixedProfile(((Fraction(3, 2), Fraction(-1, 2)),))


def test_mixed_profile_rejects_a_vector_that_is_not_a_sequence():
    for dist in ((1,), ((1, 0), None)):
        with pytest.raises(errors.InvalidDistribution, match="is not a sequence"):
            MixedProfile(dist)


def test_player_index_must_be_an_int_in_range(mp):
    sigma = MixedProfile(((1, 0), (0, 1)))
    for player in ("0", 0.0, True, 2, -1):
        for call in (evaluate_payoff, deviation_payoffs):
            with pytest.raises(errors.IndexOutOfRange) as info:
                call(mp, sigma, player)
            assert str(info.value) == f"player {player!r} out of range"


def test_mixed_profile_rejects_bad_sum():
    # an all-zero or empty vector sums to 0, so every accepted vector has
    # positive mass
    for dist in (((Fraction(1, 2), Fraction(1, 3)),), ((0, 0),), ((),)):
        with pytest.raises(errors.InvalidDistribution):
            MixedProfile(dist)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_mixed_profile_rejects_non_finite_probabilities(bad):
    for vector in ((bad, 0), (0, bad), (0.5, bad, 0.5)):
        with pytest.raises(errors.InvalidDistribution):
            MixedProfile((vector,))


@pytest.mark.parametrize(
    "bad", ["1", None, Decimal("0.5"), 0.5j], ids=["str", "None", "Decimal", "complex"]
)
def test_mixed_profile_rejects_non_numbers(bad):
    for vector in ((bad,), (bad, Decimal("0.5")), (Fraction(1, 2), bad)):
        with pytest.raises(errors.InvalidDistribution) as info:
            MixedProfile(((1,), vector))
        assert str(info.value) == f"probability {bad!r} is not a number"
    # bool, int, Fraction and float entries stay valid
    assert MixedProfile(((True, 0), (Fraction(1, 2), 0.5))).support(1) == (0, 1)


def test_float_probabilities_are_read_exactly():
    # 0.1 + 0.9 is 1.0 in float arithmetic, but the exact values of the
    # two floats sum to 1 + 2**-55, and the error prints that sum; 0.25 and
    # 0.75 are exact
    with pytest.raises(errors.InvalidDistribution) as info:
        MixedProfile(((0.1, 0.9),))
    exact_sum = 1 + Fraction(1, 2**55)
    assert str(info.value) == f"probabilities sum to {exact_sum}, expected 1"
    constant = Game(strategy_names=(("a", "b"),), payoffs=((-1, -1),))
    sigma = MixedProfile(((0.25, 0.75),))
    assert gain_table(constant, sigma).total == 0
    assert evaluate_payoff(constant, sigma, 0) == -1


def test_evaluate_payoff_pure_profiles(mp):
    # MP at (H,H): player 1 wins
    sigma = PureProfile((0, 0)).as_mixed(mp)
    assert evaluate_payoff(mp, sigma, 0) == 1
    assert evaluate_payoff(mp, sigma, 1) == -1


def test_evaluate_payoff_uniform_cancels(mp):
    uniform = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    )
    assert evaluate_payoff(mp, uniform, 0) == 0
    assert evaluate_payoff(mp, uniform, 1) == 0


def test_evaluate_payoff_half_mixed(pd):
    # P1 mixes half-half, P2 defects: 1/2*0 + 1/2*1
    sigma = MixedProfile(((Fraction(1, 2), Fraction(1, 2)), (0, 1)))
    assert evaluate_payoff(pd, sigma, 0) == Fraction(1, 2)


def test_deviation_profile_replaces_one_component(mp):
    sigma = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    )
    dev = deviation_profile(mp, sigma, 0, 0)
    assert dev.dist[0] == (1, 0)
    assert dev.dist[1] == sigma.dist[1]


def test_deviation_profile_idempotent_on_pure(mp):
    sigma = PureProfile((0, 0)).as_mixed(mp)
    dev = deviation_profile(mp, sigma, 0, 0)
    assert dev.dist == sigma.dist


def test_deviation_profile_second_player():
    g = Game(strategy_names=(("a", "b"), ("H", "T")), payoffs=((0,) * 4, (0,) * 4))
    sigma = MixedProfile(((Fraction(1, 3), Fraction(2, 3)), (1, 0)))
    dev = deviation_profile(g, sigma, 1, 1)
    assert dev.dist == ((Fraction(1, 3), Fraction(2, 3)), (0, 1))


def test_gain_table_matching_pennies_corner(mp):
    # at (H,H) player 2 gains 2 by switching to T and holds all of T
    sigma = PureProfile((0, 0)).as_mixed(mp)
    table = gain_table(mp, sigma)
    assert table.gains == ((0, 0), (0, 2))
    assert table.best == (0, 2)
    assert table.total == 2
    assert table.up == (False, True)


def test_gain_table_dominant_equilibrium(pd):
    sigma = PureProfile((1, 1)).as_mixed(pd)
    table = gain_table(pd, sigma)
    assert table.total == 0
    assert table.up == (False, False)


def test_gain_table_uniform_equilibrium(mp):
    uniform = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    )
    assert gain_table(mp, uniform).total == 0


def test_max_regret_examples(mp, pd):
    assert max_regret(pd, PureProfile((1, 1)).as_mixed(pd)) == 0
    assert max_regret(mp, PureProfile((0, 0)).as_mixed(mp)) == 2


def test_max_regret_one_player_argmax():
    g = Game(strategy_names=(("a", "b", "c"),), payoffs=((2, 5, 1),))
    best = MixedProfile(((0, 1, 0),))
    assert max_regret(g, best) == 0


def test_is_equilibrium_examples(mp, pd):
    assert is_equilibrium(pd, PureProfile((1, 1)).as_mixed(pd), 0)
    assert not is_equilibrium(mp, PureProfile((0, 0)).as_mixed(mp), 0)
    uniform = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    )
    assert is_equilibrium(mp, uniform, 0)


def test_is_equilibrium_eps_threshold(mp):
    corner = PureProfile((0, 0)).as_mixed(mp)
    assert is_equilibrium(mp, corner, 2)
    assert not is_equilibrium(mp, corner, Fraction(199, 100))


def test_is_equilibrium_rejects_negative_eps(mp):
    corner = PureProfile((0, 0)).as_mixed(mp)
    with pytest.raises(errors.NegativeEpsilon):
        is_equilibrium(mp, corner, -1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_is_equilibrium_rejects_non_finite_eps(mp, bad):
    corner = PureProfile((0, 0)).as_mixed(mp)
    with pytest.raises(errors.ParameterOutOfRange, match="not finite"):
        is_equilibrium(mp, corner, bad)


def test_zero_game_everything_is_equilibrium():
    g = Game(strategy_names=(("a", "b"), ("a", "b")), payoffs=((0,) * 4, (0,) * 4))
    sigma = MixedProfile(((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 5), Fraction(4, 5))))
    assert is_equilibrium(g, sigma, 0)


def _eps_around(regret):
    """eps values at, below and above ``regret``, as ints, Fractions and
    floats; a float next to the regret is read as the binary fraction it
    holds, which may sit on either side of it."""
    values = [0, regret, regret + 1, math.ceil(regret), float(regret), 0.1]
    if regret > 0:
        values += [
            regret - Fraction(1, 10**30),
            math.nextafter(float(regret), 0),
            Fraction(math.floor(regret * 2**60), 2**60),
        ]
    return values


@pytest.mark.parametrize("payoffs", ["rational", "float"])
def test_is_equilibrium_matches_gain_table_on_label_corpus(payoffs):
    # every vertex profile of the corpus (int and Fraction payoffs, or
    # their float values), each against eps exactly at its regret, just
    # below it and on both sides as floats
    checked = 0
    for game, m in label_corpus():
        if payoffs == "float":
            game = as_float_game(game)
        tris = player_triangulations(game, m)
        for combo in itertools.product(*(t.vertices for t in tris)):
            sigma = MixedProfile(combo)
            regret = max(gain_table(game, sigma).best)
            for eps in _eps_around(regret):
                assert is_equilibrium(game, sigma, eps) == (regret <= eps), (
                    game.name,
                    sigma,
                    eps,
                )
                checked += 1
    assert checked > 60000


@pytest.mark.parametrize(
    "gain, eps, expected",
    [
        # 0.1 holds 3602879701896397 / 2**55, a little above 1/10
        pytest.param(Fraction(1, 10), 0.1, True, id="1/10-vs-0.1"),
        # 0.3 holds a little below 3/10
        pytest.param(Fraction(3, 10), 0.3, False, id="3/10-vs-0.3"),
        # a float payoff 0.1 gains its binary value, above the Fraction 1/10
        pytest.param(0.1, Fraction(1, 10), False, id="0.1-vs-1/10"),
        pytest.param(0.1, 0.1, True, id="0.1-vs-0.1"),
    ],
)
def test_is_equilibrium_reads_float_eps_exactly(gain, eps, expected):
    # one player, on the strategy that pays 0; the other pays ``gain``
    game = Game(strategy_names=(("a", "b"),), payoffs=((0, gain),))
    sigma = MixedProfile(((1, 0),))
    assert is_equilibrium(game, sigma, eps) is expected
    assert (max_regret(game, sigma) <= eps) is expected


@st.composite
def game_and_profile(draw):
    n_players = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(n_players))
    size = 1
    for k in shape:
        size *= k
    payoffs = tuple(
        tuple(draw(st.integers(-5, 5)) for _ in range(size)) for _ in shape
    )
    names = tuple(tuple(f"s{j}" for j in range(k)) for k in shape)
    game = Game(strategy_names=names, payoffs=payoffs)
    dist = []
    for k in shape:
        weights = [draw(st.integers(0, 6)) for _ in range(k)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        dist.append(tuple(Fraction(w, total) for w in weights))
    return game, MixedProfile(tuple(dist))


@given(game_and_profile())
@settings(max_examples=200, deadline=None)
def test_averaging_identity(pair):
    # expected payoff equals the support-weighted average of deviation payoffs
    game, sigma = pair
    for i in range(game.num_players):
        base = evaluate_payoff(game, sigma, i)
        devs = deviation_payoffs(game, sigma, i)
        assert sum(a * d for a, d in zip(sigma.dist[i], devs)) == base


@given(game_and_profile())
@settings(max_examples=200, deadline=None)
def test_gain_table_invariants(pair):
    game, sigma = pair
    table = gain_table(game, sigma)
    n = game.num_players
    for i in range(n):
        base = evaluate_payoff(game, sigma, i)
        for s in range(game.shape[i]):
            dev = evaluate_payoff(game, deviation_profile(game, sigma, i, s), i)
            expected = dev - base if dev > base else 0
            assert table.gains[i][s] == expected
        assert table.best[i] == max(table.gains[i])
    assert table.total == sum(table.best)
    # threshold partition: up iff holding strictly more than T/(n+1)
    for i in range(n):
        assert table.up[i] == (table.best[i] * (n + 1) > table.total)
    # at most n players can strictly exceed T/(n+1) when T>0; none when T=0
    if table.total == 0:
        assert not any(table.up)


@given(game_and_profile(), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_payoff_shift_leaves_gains_fixed(pair, shift):
    # adding a constant to one player's tensor moves payoffs, not gains
    game, sigma = pair
    shifted_payoffs = tuple(
        tuple(v + shift for v in tensor) if i == 0 else tensor
        for i, tensor in enumerate(game.payoffs)
    )
    shifted = Game(strategy_names=game.strategy_names, payoffs=shifted_payoffs)
    assert gain_table(game, sigma).gains == gain_table(shifted, sigma).gains


@given(game_and_profile(), st.integers(0, 4), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_multilinearity_in_own_component(pair, num, den):
    # payoff of a convex blend of two own-distributions is the blend of payoffs
    game, sigma = pair
    lam = Fraction(min(num, den), den)
    for i in range(game.num_players):
        k = game.shape[i]
        other = tuple(
            Fraction(1, k) for _ in range(k)
        )
        blended_dist = tuple(
            lam * a + (1 - lam) * b for a, b in zip(sigma.dist[i], other)
        )
        blended = MixedProfile(
            tuple(
                blended_dist if j == i else sigma.dist[j]
                for j in range(game.num_players)
            )
        )
        swapped = MixedProfile(
            tuple(
                other if j == i else sigma.dist[j]
                for j in range(game.num_players)
            )
        )
        lhs = evaluate_payoff(game, blended, i)
        rhs = lam * evaluate_payoff(game, sigma, i) + (1 - lam) * evaluate_payoff(
            game, swapped, i
        )
        assert lhs == rhs


def test_deviation_payoffs_matches_per_strategy_evaluation():
    rng = random.Random(7)
    for _ in range(20):
        game = random_game(rng, (2, 3, 2))
        sigma = random_profile(game, rng)
        for i in range(game.num_players):
            devs = deviation_payoffs(game, sigma, i)
            for s in range(game.shape[i]):
                direct = evaluate_payoff(
                    game, deviation_profile(game, sigma, i, s), i
                )
                assert devs[s] == direct


def reference_gain_table(game, sigma):
    # one evaluate_payoff per deviation profile; the expected payoff is
    # their own-strategy average
    n = game.num_players
    gains, best = [], []
    for i in range(n):
        devs = [
            evaluate_payoff(game, deviation_profile(game, sigma, i, s), i)
            for s in range(game.shape[i])
        ]
        base = 0
        for p, d in zip(sigma.dist[i], devs):
            if p:
                base = base + p * d
        gains.append([max(d - base, 0) for d in devs])
        best.append(max(gains[-1]))
    total = 0
    for b in best:
        total = total + b
    share = scalars.exact_div(total, n + 1)
    up = [b > share for b in best]
    return gains, best, total, up


def gain_table_strings(gains, best, total, up):
    fmt = scalars.format_scalar
    return [[fmt(g) for g in row] for row in gains], [fmt(b) for b in best], fmt(total), list(up)


def assert_lifted_gains_match(game, table, numerators, denominators):
    """The lifted best gains at a profile's integer forms, reduced or not,
    over ``lcm * prod(denominators)`` are ``table.best``, and their up
    flags ``table.up``."""
    rows = game_module._rows(game, numerators, denominators)
    lifted = game_module._lifted_gains(game, rows)
    den = math.lcm(*game.payoff_scales) * math.prod(denominators)
    assert [Fraction(b, den) for b in lifted] == list(table.best)
    assert game_module.up_flags(lifted, sum(lifted)) == table.up


@pytest.mark.parametrize("payoffs", ["rational", "float"])
def test_gain_table_matches_reference_on_label_corpus(payoffs):
    # every vertex profile and every certificate barycenter of the corpus,
    # whose games include rational payoffs; as floats, the payoffs are read
    # as the exact binary fractions they hold.  The lifted best gains are
    # checked at each profile's reduced form and at the unreduced one the
    # search hands them: lattice numerators over m, barycenter sums over
    # m * (d + 1)
    checked = 0
    for game, m in label_corpus():
        if payoffs == "float":
            game = as_float_game(game)
        tris = player_triangulations(game, m)
        profiles = [
            (MixedProfile(combo), (rows, [m] * len(rows)))
            for combo, rows in zip(
                itertools.product(*(t.vertices for t in tris)),
                itertools.product(*(t.numerators for t in tris)),
            )
        ]
        profiles += [
            (representative(cert), search_module._barycenter(cert.cell))
            for cert in scan_cells(game, tris)
        ]
        for sigma, unreduced in profiles:
            table = gain_table(game, sigma)
            got = gain_table_strings(table.gains, table.best, table.total, table.up)
            assert got == gain_table_strings(*reference_gain_table(game, sigma)), (
                game.name,
                m,
                sigma,
            )
            assert_lifted_gains_match(game, table, sigma.numerators, sigma.denominators)
            assert_lifted_gains_match(game, table, *unreduced)
            checked += 1
    assert checked > 9269  # vertex profiles plus barycenters


def _as_fraction_game(game):
    return Game(
        strategy_names=game.strategy_names,
        payoffs=tuple(tuple(map(Fraction, tensor)) for tensor in game.payoffs),
        name=game.name,
    )


@pytest.mark.parametrize("payoffs", ["rational", "float", "fraction"])
def test_game_keeps_integer_payoffs_equal_to_as_integers(payoffs):
    # the label corpus (int, rational and wide payoffs, the fixture suite
    # among them), as given, as floats and as Fractions
    convert = {"rational": lambda g: g, "float": as_float_game, "fraction": _as_fraction_game}
    games = {game.name: convert[payoffs](game) for game, _ in label_corpus()}
    for game in games.values():
        assert type(game.integer_payoffs) is tuple and type(game.payoff_scales) is tuple
        forms = zip(game.payoffs, game.integer_payoffs, game.payoff_scales)
        for tensor, ints, scale in forms:
            nums, den = scalars.as_integers(tensor)
            assert type(ints) is tuple and ints == tuple(nums) and scale == den
            assert all(type(k) is int for k in ints)
            if all(type(v) is int for v in tensor):
                assert ints is tensor and scale == 1  # its own form, not a copy
    integer_games = [g for g in games.values() if g.integer_payoffs is g.payoffs]
    assert bool(integer_games) is (payoffs == "rational")


def _corpus_profiles(rng):
    """Vertex profiles of part of the label corpus, random rational
    profiles, their float copies (dyadic weights, so the floats are exact)
    and bool vectors."""
    profiles = []
    for game, m in label_corpus()[::4]:
        tris = player_triangulations(game, m)
        profiles += [MixedProfile(c) for c in itertools.product(*(t.vertices for t in tris))]
        profiles.append(random_profile(game, rng))
        dyadic = random_profile(game, rng, denominator=8)
        profiles.append(MixedProfile(tuple(tuple(map(float, v)) for v in dyadic.dist)))
    profiles.append(MixedProfile(((True, False), (0, 1))))
    profiles.append(MixedProfile(((1, 0), (0.25, Fraction(3, 4)), (0, 1))))
    return profiles


def test_mixed_profile_keeps_integer_vectors_equal_to_as_integers():
    profiles = _corpus_profiles(random.Random(7))
    own = 0
    for sigma in profiles:
        assert type(sigma.numerators) is tuple and type(sigma.denominators) is tuple
        assert len(sigma.numerators) == len(sigma.denominators) == len(sigma.dist)
        for vector, nums, den in zip(sigma.dist, sigma.numerators, sigma.denominators):
            expected, expected_den = scalars.as_integers(vector)
            assert type(nums) is tuple and nums == tuple(expected) and den == expected_den
            assert all(type(k) is int for k in nums) and sum(nums) == den
            if all(type(p) is int for p in vector):
                assert nums is vector
        if all(type(p) is int for vector in sigma.dist for p in vector):
            assert sigma.numerators is sigma.dist  # its own form, not a copy
            own += 1
    assert own > 100 and len(profiles) > 1500


def test_cached_forms_leave_equality_hash_repr_and_copies_alone():
    a, b = MixedProfile(((1, 0),)), MixedProfile(((Fraction(1), 0),))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "MixedProfile(dist=((1, 0),))"
    c, d = MixedProfile(((0.5, 0.5),)), MixedProfile(((Fraction(1, 2), Fraction(1, 2)),))
    assert c == d and hash(c) == hash(d)
    assert repr(d) == "MixedProfile(dist=((Fraction(1, 2), Fraction(1, 2)),))"
    g = Game(strategy_names=(("a", "b"),), payoffs=((1, 2),), name="g")
    h = Game(strategy_names=(("a", "b"),), payoffs=((Fraction(1), 2.0),), name="g")
    assert g == h and hash(g) == hash(h)
    assert repr(g) == "Game(strategy_names=(('a', 'b'),), payoffs=((1, 2),), name='g')"
    table = gain_table(g, a)
    assert repr(table) == "GainTable(gains=((0, 1),), best=(1,), total=1, up=(True,))"
    assert repr(PureProfile((0,))) == "PureProfile(choices=(0,))"
    for obj in (g, h, a, b, c, table, PureProfile((1,))):
        assert not hasattr(obj, "__dict__")
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(twin) is type(obj)
            assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
            if isinstance(obj, Game):
                assert twin.integer_payoffs == obj.integer_payoffs
                assert twin.payoff_scales == obj.payoff_scales
                assert (twin.shape, twin.strides) == (obj.shape, obj.strides)
                assert gain_table(twin, c) == gain_table(obj, c)
            if isinstance(obj, MixedProfile):
                assert twin.numerators == obj.numerators
                assert twin.denominators == obj.denominators
                assert gain_table(h, twin) == gain_table(h, obj)


def test_is_equilibrium_stops_at_the_first_player_that_gains(monkeypatch):
    # eps below player 0's best gain fails after player 0's row alone; an
    # eps at the max regret reads every player's row; both agree with
    # max_regret <= eps
    calls = count_calls(monkeypatch, game_module, "deviation_sums")
    failed_first = passed = 0
    for game, m in label_corpus():
        if game.num_players < 2:
            continue
        tris = player_triangulations(game, m)
        for combo in itertools.product(*(t.vertices for t in tris)):
            sigma = MixedProfile(combo)
            best = gain_table(game, sigma).best
            regret = max_regret(game, sigma)
            if best[0] > 0:
                eps = Fraction(best[0]) / 2
                calls.clear()
                assert is_equilibrium(game, sigma, eps) is False is (regret <= eps)
                assert len(calls) == 1, (game.name, sigma)
                failed_first += 1
            calls.clear()
            assert is_equilibrium(game, sigma, regret) is True is (regret <= regret)
            assert len(calls) == game.num_players
            passed += 1
    assert failed_first > 1000 and passed > 5000


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_no_payoff_tensor_is_rescaled_per_call(monkeypatch, kind):
    # the games are built first; gain tables, equilibrium tests and grid
    # labels then read the integer tensors the games keep
    rng = random.Random(11)
    games = [random_game(rng, shape) for shape in ((2, 2), (3, 3), (2, 3, 2), (4,))]
    if kind == "fraction":
        games = [
            Game(
                strategy_names=g.strategy_names,
                payoffs=tuple(tuple(Fraction(v, 3) for v in t) for t in g.payoffs),
            )
            for g in games
        ]
    calls = count_calls(monkeypatch, scalars, "as_integers")
    tensors = [tensor for game in games for tensor in game.payoffs]
    for game in games:
        tris = player_triangulations(game, 2)
        grid_labels(game, tris)
        for combo in itertools.product(*(t.vertices for t in tris)):
            sigma = MixedProfile(combo)
            gain_table(game, sigma)
            is_equilibrium(game, sigma, 0)
    assert calls  # the profiles' own vectors still go through it
    assert not [args for args in calls if any(args[0] is t for t in tensors)]


def test_payoff_refuses_indices_that_are_not_ints(mp):
    for player in ("0", 0.0, True, None):
        with pytest.raises(errors.IndexOutOfRange) as info:
            mp.payoff(player, (0, 0))
        assert str(info.value) == f"player {player!r} out of range"
    for s in ("0", 0.0, True, None):
        for pure in ((s, 0), (0, s)):
            with pytest.raises(errors.IndexOutOfRange) as info:
                mp.payoff(0, pure)
            assert str(info.value) == f"strategy index {s!r} out of range"


@pytest.mark.parametrize(
    "s", [True, 0.0, "0", 2, -1], ids=["bool", "float", "str", "past-end", "negative"]
)
def test_pure_profile_refuses_what_payoff_refuses(mp, s):
    # as_mixed and flat_index keep Game.payoff's rule: an int in range,
    # nothing else
    calls = (
        mp.payoff,
        lambda _, pure: mp.flat_index(pure),
        lambda _, pure: PureProfile(pure).as_mixed(mp),
    )
    for choices in ((s, 0), (0, s), (s, s)):
        for call in calls:
            with pytest.raises(errors.IndexOutOfRange) as info:
                call(0, choices)
            assert str(info.value) == f"strategy index {s!r} out of range"


@pytest.mark.parametrize("pure", [(), (1,), (1, 1, 1)], ids=["empty", "short", "long"])
def test_a_pure_index_of_the_wrong_length_is_refused(mp, pure):
    # zip would truncate it to a payoff of some other combination
    calls = (
        lambda: mp.payoff(0, pure),
        lambda: mp.flat_index(pure),
        lambda: PureProfile(pure).as_mixed(mp),
    )
    for call in calls:
        with pytest.raises(errors.DimensionMismatch) as info:
            call()
        assert str(info.value) == "pure profile length != player count"


@pytest.mark.parametrize(
    "pure", [5, None, iter((0, 0))], ids=["int", "none", "iterator"]
)
def test_a_pure_index_that_is_not_a_sequence_is_refused(mp, pure):
    # len would raise a bare TypeError, or an iterator be half consumed
    for call in (lambda: mp.payoff(0, pure), lambda: mp.flat_index(pure)):
        with pytest.raises(errors.DimensionMismatch) as info:
            call()
        assert str(info.value) == f"pure profile {pure!r} is not a sequence"
    # a str is a sequence: its items are refused one by one
    with pytest.raises(errors.IndexOutOfRange):
        mp.payoff(0, "ab")


def test_flat_index_is_row_major_over_every_combination(rps):
    combos = list(itertools.product(range(3), repeat=2))
    assert list(map(rps.flat_index, combos)) == list(range(9))
    assert tuple(rps.payoff(1, pure) for pure in combos) == rps.payoffs[1]


def test_game_and_profile_refuse_list_containers():
    # a list would leave the frozen object unhashable
    for names, message in (
        ([("a", "b")], "strategy_names is a list, not a tuple"),
        ((["a", "b"],), "strategy names ['a', 'b'] is a list, not a tuple"),
        ((("a",), ["a", "b"]), "strategy names ['a', 'b'] is a list, not a tuple"),
    ):
        with pytest.raises(errors.ShapeError) as info:
            Game(names, ((1, 2),) * len(names))
        assert str(info.value) == message
    for dist, message in (
        ([(1, 0)], "dist [(1, 0)] is a list, not a tuple"),
        (([1, 0],), "strategy vector [1, 0] is a list, not a tuple"),
        (((1, 0), [Fraction(1, 2), Fraction(1, 2)]), "is a list, not a tuple"),
        (None, "dist None is not a sequence"),
    ):
        with pytest.raises(errors.InvalidDistribution, match=re.escape(message)):
            MixedProfile(dist)
    for choices, message in (
        ([0, 1], "choices [0, 1] is a list, not a tuple"),
        (range(2), "choices range(0, 2) is a range, not a tuple"),
        (0, "choices 0 is not a sequence"),
    ):
        with pytest.raises(errors.ShapeError) as info:
            PureProfile(choices)
        assert str(info.value) == message
    hash(Game((("a", "b"),), ((1, 2),)))
    hash(MixedProfile(((1, 0),)))
    assert hash(PureProfile((0, 1))) == hash(PureProfile((0, 1)))

"""Zero-gain labels and the straight-line motion they induce.

Every profile gets a pure label per player: the supported strategy whose
deviation payoff is smallest.  Averaging guarantees the minimum never
beats the profile's own payoff, so the labeled strategy always has zero
deviation gain.  Ties break to the lowest strategy index, which keeps
labels deterministic and grids reproducible.

Moving each player's vector along the segment toward the degenerate
vector on their label sweeps grid cells onto pure profiles; cells whose
vertex labels cover every pure profile exactly once are the certificates
the search module looks for.
"""

from __future__ import annotations

from .errors import ParameterOutOfRange
from .game import (
    Game,
    MixedProfile,
    PureProfile,
    deviation_payoffs,
    evaluate_payoff,
    support_or_raise,
)
from . import scalars
from .scalars import Scalar


def root_label(game: Game, sigma: MixedProfile) -> PureProfile:
    """Per player, the supported strategy with the smallest deviation
    payoff (lowest index on ties)."""
    choices = []
    for i in range(game.num_players):
        support = support_or_raise(sigma, i)
        devs = deviation_payoffs(game, sigma, i)
        best_s = support[0]
        best_v = devs[best_s]
        for s in support[1:]:
            if scalars.strictly_greater(best_v, devs[s]):
                best_s = s
                best_v = devs[s]
        choices.append(best_s)
    return PureProfile(tuple(choices))


def root_motion(game: Game, sigma: MixedProfile, t: Scalar) -> MixedProfile:
    """Point at parameter ``t`` on the segment from ``sigma`` to the
    degenerate profile on its label.  ``t=0`` returns ``sigma`` itself,
    ``t=1`` the fully moved profile."""
    if not 0 <= t <= 1:
        raise ParameterOutOfRange(f"t={t} outside [0, 1]")
    label = root_label(game, sigma)
    dists = []
    for vector, target in zip(sigma.dist, label.choices):
        moved = tuple(
            p + t * ((1 if s == target else 0) - p) for s, p in enumerate(vector)
        )
        dists.append(moved)
    return MixedProfile(tuple(dists))


def check_root_properties(game: Game, sigma: MixedProfile) -> bool:
    """Re-derive the label laws from scratch: the label is supported, its
    deviation gain is zero, and it puts no mass outside the support."""
    label = root_label(game, sigma)
    for i, s in enumerate(label.choices):
        support = support_or_raise(sigma, i)
        if s not in support:
            return False
        base = evaluate_payoff(game, sigma, i)
        dev = deviation_payoffs(game, sigma, i)[s]
        gain = max(dev - base, 0)
        if not scalars.is_zero(gain):
            return False
    return True

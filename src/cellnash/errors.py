"""Exception types shared across the package.

Every error carries a stable ``code`` string so CLI output can be matched
by machines without parsing prose messages.
"""

from __future__ import annotations


class CellNashError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class DimensionMismatch(CellNashError, ValueError):
    """Profile shape does not match the game's strategy counts."""

    code = "dimension-mismatch"


class InvalidDistribution(CellNashError, ValueError):
    """A strategy vector is negative somewhere or does not sum to one."""

    code = "invalid-distribution"


class IndexOutOfRange(CellNashError, IndexError):
    """A strategy or player index is outside the game's range."""

    code = "index-out-of-range"


class NegativeEpsilon(CellNashError, ValueError):
    """An epsilon tolerance below zero was supplied."""

    code = "negative-epsilon"


class EmptySupport(CellNashError, ValueError):
    """A strategy vector has no positive entries, so no label exists."""

    code = "empty-support"


class ParameterOutOfRange(CellNashError, ValueError):
    """A numeric parameter violates its documented range."""

    code = "parameter-out-of-range"


class ResolutionZero(CellNashError, ValueError):
    """Grid resolutions must be at least one."""

    code = "resolution-zero"


class BudgetExceeded(CellNashError):
    """The grid has more vertex profiles or product cells than the budget."""

    code = "budget-exceeded"

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"grid needs {needed} vertex profiles or cells, budget is {budget}"
        )


class NoPreEquilibriumFound(CellNashError):
    """No stage of the refinement loop produced a certified cell."""

    code = "no-pre-equilibrium-found"

    def __init__(self, stage: int, resolutions_tried: list, cells_scanned: int):
        self.stage = stage
        self.resolutions_tried = resolutions_tried
        self.cells_scanned = cells_scanned
        super().__init__(
            f"no completely labeled cell through stage {stage} "
            f"(resolutions tried: {resolutions_tried}, cells scanned: {cells_scanned})"
        )


class NotSinglePlayer(CellNashError, ValueError):
    """Volume bookkeeping is only defined for one-player games."""

    code = "not-single-player"


class ParseError(CellNashError, ValueError):
    """Malformed game file, profile, or scalar input."""

    code = "parse-error"


class ShapeError(ParseError):
    """Payoff tensor length disagrees with the strategy counts."""

    code = "shape-error"

"""Search budgets for the semidecidable parts of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class Budgets:
    """Knobs bounding the word-rewriting search and the graph sweeps.

    The defaults comfortably settle every desk-scale instance shipped with
    the test suite; raising them trades time for fewer Unknown outcomes.
    """

    word_max_len: int = 64
    search_max_nodes: int = 100_000
    graph_max_vertices: int = 64
    graph_max_candidates: int = 20_000
    maxdiag_max_candidates: int = 20_000
    # rational grid used when searching over an infinite field
    rational_grid: tuple = (
        Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
        Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2),
    )

    def with_overrides(self, **kwargs) -> "Budgets":
        known = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **known)


DEFAULT_BUDGETS = Budgets()

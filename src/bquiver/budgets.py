"""Search budgets for the semidecidable parts of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass


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


DEFAULT_BUDGETS = Budgets()

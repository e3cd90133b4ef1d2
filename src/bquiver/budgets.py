"""Search budgets for the semidecidable parts of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    """The one settable bound: the nodes the word-rewriting search visits
    before a homotopy decision stays unknown; raising it trades time for
    fewer unknown outcomes.  The other limits are module constants:
    ``homotopy._WORD_MAX_LEN``, ``relquiver._GRAPH_MAX_CANDIDATES`` and
    ``_GRAPH_MAX_VERTICES``, ``presentations._MAXDIAG_MAX_CANDIDATES``.
    """

    search_max_nodes: int = 100_000


DEFAULT_BUDGETS = Budgets()

"""Reciprocal rank fusion over per-iteration ranked lists.

Two rank-based schemes plus a passthrough:

  rrf        score(d) = sum over lists i of 1 / (rank_i(d) + k)
  prrf       score(d) = sum over lists i of i / (rank_i(d) + k)
  final_only the last non-empty list, untouched apart from depth truncation

``i`` is the 1-based iteration index of the list, so prrf weights later
rewrites more heavily; a passage absent from a list contributes 0 from it.
Ranks are 1-based. Output is sorted score-descending with ties broken by
passage id ascending and truncated to the configured depth.
"""

from __future__ import annotations

from typing import Sequence

from .config import FusionConfig
from .errors import EmptyInput
from .ranking import RankedList, ranked_from_scores


def fuse(lists: Sequence[RankedList], config: FusionConfig, tag: str | None = None) -> RankedList:
    """Fuse per-iteration ranked lists, ordered by iteration index.

    Deterministic and idempotent; raises EmptyInput when no lists are given.
    """
    if not lists:
        raise EmptyInput("fuse requires at least one ranked list")
    out_tag = tag if tag is not None else lists[-1].query_tag
    if config.mode == "final_only":
        # a run file holds no line for an empty list, so a last rewrite that
        # retrieved nothing does not empty the fused list
        last = next((ranked.entries for ranked in reversed(lists) if ranked.entries), [])
        return RankedList(out_tag, list(last[: config.depth]))
    scores: dict[str, float] = {}
    for i, ranked in enumerate(lists, 1):
        weight = float(i) if config.mode == "prrf" else 1.0
        for rank, (pid, _) in enumerate(ranked.entries, 1):
            scores[pid] = scores.get(pid, 0.0) + weight / (rank + config.k)
    return ranked_from_scores(out_tag, scores, config.depth)

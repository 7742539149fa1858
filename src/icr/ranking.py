"""Ranked retrieval results and TREC run-file round-tripping.

A RankedList is the unit passed between retrieval, fusion, and evaluation:
entries sorted by score descending with ties broken by passage id
ascending, no duplicate ids, truncated to the requested depth.
"""

from __future__ import annotations

import contextlib
import operator
import warnings
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from math import isfinite
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .corpus import _open_text
from .errors import DataError, MalformedRecord


@dataclass
class RankedList:
    query_tag: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def ids(self) -> list[str]:
        return [pid for pid, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def ranked_from_scores(query_tag: str, scores: Mapping[str, float], k: int) -> RankedList:
    """Top-k of a score map under the canonical (score desc, id asc) order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
    return RankedList(query_tag, ordered[:k])


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each ordinal's id under Python string order, the
    canonical tie-break; an index computes it once, and ``read_run`` for a
    run out of canonical order."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def stored_id_ranks(path: str, ranks: np.ndarray, ids: list) -> tuple[np.ndarray, np.ndarray]:
    """Id ranks read from an index file, as int64, and ``by_rank`` of them.
    A DataError unless the ids are distinct strings and ``ranks`` is their
    order, which ``by_rank`` of the ranks lists in increasing id order."""
    n = len(ids)
    ok = ranks.shape == (n,) and ranks.dtype.kind in "iu" and (n == 0 or 0 <= ranks.min() <= ranks.max() < n)
    if ok:
        ranks = ranks.astype(np.int64)
        seen = np.zeros(n, dtype=bool)
        seen[ranks] = True
        ok = bool(seen.all())
    if not ok:
        raise DataError(f"{path}: stored id ranks are not a permutation of the passage ordinals")
    if not set(map(type, ids)) <= {str}:
        raise DataError(f"{path}: passage ids must be strings")
    ordinals = by_rank(ranks)
    # a memoryview yields each ordinal as it is read, so no list of ints is held
    ordered = list(map(ids.__getitem__, memoryview(ordinals)))
    if not all(map(operator.lt, ordered, islice(ordered, 1, None))):
        prev, pid = next((a, b) for a, b in zip(ordered, ordered[1:]) if not a < b)
        raise DataError(
            f"{path}: passage id {pid!r} repeats" if prev == pid else f"{path}: stored id ranks do not order the ids"
        )
    return ranks, ordinals


def by_rank(id_rank: np.ndarray) -> np.ndarray:
    """The ordinals in increasing id order: the inverse of ``id_rank``."""
    ordinals = np.empty_like(id_rank)
    ordinals[id_rank] = np.arange(len(id_rank))
    return ordinals


def has_id(ids: Sequence[str], ordered: np.ndarray, passage_id: str) -> bool:
    """Whether ``passage_id`` is one of ``ids``, by binary search over
    ``ordered``, the ordinals in increasing id order (see ``by_rank``)."""
    at = bisect_left(ordered, passage_id, key=ids.__getitem__)
    return at < len(ordered) and ids[ordered[at]] == passage_id


def top_k(
    query_tag: str,
    scores: np.ndarray,
    ids: Sequence[str],
    id_rank: np.ndarray,
    k: int,
    ords: np.ndarray | None = None,
) -> RankedList:
    """Top-k of a score array under the canonical (score desc, id asc) order.

    ``scores[i]`` belongs to ordinal ``ords[i]``, or to ordinal ``i`` when
    ``ords`` is None. Equal to ``ranked_from_scores`` over the same map: the
    k-th largest score is found by partition, every candidate scoring at
    least that much is kept (so ties straddling the cut stay exact), and
    only those are sorted by (-score, id rank).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ords is None:
        ords = np.arange(len(scores))
    if len(scores) > k:
        cut = len(scores) - k
        keep = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        scores, ords = scores[keep], ords[keep]
    order = np.lexsort((id_rank[ords], -scores))[:k]
    return RankedList(
        query_tag, list(zip([ids[o] for o in ords[order].tolist()], scores[order].tolist()))
    )


def write_run(lists: Iterable[RankedList], path: str | TextIO, tag: str = "ICR") -> int:
    """Write ranked lists as TREC run lines: ``qid Q0 docid rank score tag``,
    to the file at ``path``, or into ``path`` itself if it is an open text
    file.

    Scores are written with full repr precision so a reloaded run reproduces
    the in-memory ordering exactly. Returns the number of empty lists
    encountered (they produce no lines).
    """
    empty = 0
    with open(path, "w", encoding="utf-8") if isinstance(path, str) else contextlib.nullcontext(path) as fh:
        for rl in lists:
            if not rl.entries:
                empty += 1
                continue
            for rank, (pid, score) in enumerate(rl.entries, 1):
                fh.write(f"{rl.query_tag} Q0 {pid} {rank} {score!r} {tag}\n")
    return empty


class Run(Mapping[str, RankedList]):
    """A read-only TREC run held as columns, keyed by query id.

    Passage ids and scores are stored in (query, rank, file line) order, with
    one row range per query; ``run[qid]`` builds that query's RankedList on
    demand, so a caller that walks the queries holds one list at a time.
    Membership, iteration and length never build a list.
    """

    def __init__(self, pids: list[str], scores: np.ndarray, spans: dict[str, tuple[int, int]]):
        self._pids = pids
        self._scores = scores
        self._spans = spans

    def __getitem__(self, qid: str) -> RankedList:
        start, stop = self._spans[qid]
        return RankedList(qid, list(zip(self._pids[start:stop], self._scores[start:stop].tolist())))

    def ids(self, qid: str) -> list[str]:
        """``self[qid].ids()``, sliced from the id column."""
        start, stop = self._spans[qid]
        return self._pids[start:stop]

    def __contains__(self, qid: object) -> bool:
        return qid in self._spans

    def __iter__(self) -> Iterator[str]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


#: Characters read at once: 2,048 lines of 32. numpy parses each chunk into
#: a row array of (lines x longest line) characters per id column, so a chunk
#: over four times this size (a very long line) takes the per-line rules.
_CHUNK_CHARS = 1 << 16


def read_run(path: str, start: int = 0, stop: int | None = None) -> Run:
    """Read a TREC run file into a Run of per-query RankedLists.

    Entries follow the canonical (score desc, id asc) order, and the rank
    column is not read; queries keep first-seen order. A docid repeated
    within one query is a MalformedRecord, since a ranked list holds each
    passage once, and so is a non-finite score, which no ranking can order.

    With ``start`` or ``stop``, only the file's bytes ``[start, stop)`` are
    read, under the same rules; they should begin at a line start. Errors
    then count lines from ``start``, but invalid UTF-8 is named at the
    file's first bad line.
    """
    codes: dict[str, int] = {}
    block_codes: list[int] = []  # one per run of lines with equal qids
    block_sizes: list[int] = []
    scores = array("d")
    pids: list[str] = []
    line_no = 0
    # numpy warns on a chunk of blank lines: as an error, it takes the
    # per-line rules
    with _open_text(path, start, stop) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        while lines := fh.readlines(_CHUNK_CHARS):
            qids, sizes, chunk_pids, score = _parse_chunk(path, lines, line_no)
            line_no += len(lines)
            block_codes += [codes.setdefault(qid, len(codes)) for qid in qids]
            block_sizes += sizes
            scores.frombytes(score)
            pids += chunk_pids
    qcode = np.repeat(np.array(block_codes, dtype=np.int64), block_sizes)
    # the view holds its array, so replacing the view frees the column
    score = np.frombuffer(scores, dtype=np.float64)
    del scores
    # a run that write_run wrote is in canonical order already and is kept
    # as read; only its few score ties are compared in Python
    order = None
    same = qcode[1:] == qcode[:-1]
    canonical = ((qcode[1:] > qcode[:-1]) | (same & (score[1:] <= score[:-1]))).all() and all(
        pids[row] < pids[row + 1] for row in np.flatnonzero(same & (score[1:] == score[:-1])).tolist()
    )
    if not canonical:
        order = np.lexsort((id_ranks(pids), -score, qcode))
        score = score[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(qcode, minlength=len(codes))))).tolist()
    ordered = pids if order is None else [pids[row] for row in order.tolist()]
    spans = {}
    for qid, code in codes.items():
        first, last = bounds[code], bounds[code + 1]
        if len(set(ordered[first:last])) != last - first:
            _raise_repeat(path, start, stop, qid)
        spans[qid] = (first, last)
    return Run(ordered, score, spans)


def _parse_chunk(path: str, lines: list[str], line_no: int) -> tuple[list[str], list[int], list[str], bytes]:
    """One chunk of run lines, the first of which is line ``line_no + 1``, as
    (qid and size of each block of equal qids, passage ids, scores).

    numpy's C reader splits on the same whitespace as ``str.split`` and
    accepts a subset of the numbers ``float`` accepts, with equal values.
    A chunk it rejects, or whose scores are not all finite, takes the
    per-line rules, which name the first bad line or read Python-only
    spellings such as ``1_0``. So does a chunk holding a NUL, which numpy's
    strings drop from the end of an id, or one too wide to parse at once.
    """
    width = max(map(len, lines))
    if len(lines) * width <= 4 * _CHUNK_CHARS and "\x00" not in "".join(lines):
        columns = [
            ("qid", f"U{width}"), ("q0", "U1"), ("pid", f"U{width}"), ("rank", "U1"), ("score", "f8"), ("tag", "U1"),
        ]
        try:
            rows = np.loadtxt(lines, dtype=columns, comments=None, ndmin=1)
        except (ValueError, Warning):
            rows = None
        if rows is not None and np.isfinite(rows["score"]).all():
            qids = rows["qid"]
            starts = np.flatnonzero(np.concatenate(([True], qids[1:] != qids[:-1])))
            # copies, so no field view keeps the whole row array alive
            return (
                qids[starts].tolist(), np.diff(starts, append=len(rows)).tolist(),
                rows["pid"].tolist(), rows["score"].tobytes(),
            )
    return _parse_lines(path, lines, line_no)


def _parse_lines(path: str, lines: list[str], line_no: int) -> tuple[list[str], list[int], list[str], bytes]:
    """``_parse_chunk`` one line at a time, under Python's own rules, with a
    block per line."""
    qids: list[str] = []
    pids: list[str] = []
    scores: list[float] = []
    for line_no, line in enumerate(lines, line_no + 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise MalformedRecord(path, line_no, "expected 6 columns: qid Q0 docid rank score tag")
        qid, _, pid, _, score_s, _ = parts
        try:
            score = float(score_s)
        except ValueError as e:
            raise MalformedRecord(path, line_no, f"bad score: {e}") from e
        if not isfinite(score):
            raise MalformedRecord(path, line_no, f"score {score_s!r} is not finite")
        qids.append(qid)
        pids.append(pid)
        scores.append(score)
    return qids, [1] * len(qids), pids, array("d", scores).tobytes()


def _raise_repeat(path: str, start: int, stop: int | None, qid: str) -> None:
    """Name the first line of query ``qid`` in the file's bytes ``[start,
    stop)`` whose passage id an earlier line of that query holds."""
    seen: set[str] = set()
    with _open_text(path, start, stop) as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if parts and parts[0] == qid:
                if parts[2] in seen:
                    raise MalformedRecord(path, line_no, f"docid {parts[2]!r} repeats in query {qid!r}")
                seen.add(parts[2])

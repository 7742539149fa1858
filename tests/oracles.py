"""Independent brute-force scorers used as oracles by the test suite.

Everything here is written directly from the metric and scoring
definitions, deliberately naive (full scans, recomputed statistics) and
independent of the library's index/search code paths.
"""

from __future__ import annotations

import math
import re
import zlib
from collections import Counter
from typing import Mapping

import numpy as np

from icr.corpus import _open_text
from icr.errors import MalformedRecord
from icr.ranking import RankedList


def oracle_tokenize(text: str) -> list[str]:
    """The declared tokenizer: lowercase, then maximal runs of Unicode
    alphanumerics (word characters other than ``_``)."""
    return re.findall(r"[^\W_]+", text.lower())


def oracle_mrr(ranked_ids: list[str], relevant: set[str]) -> float:
    for rank, pid in enumerate(ranked_ids, 1):
        if pid in relevant:
            return 1.0 / rank
    return 0.0


def _dcg(gains: list[float]) -> float:
    return sum(g / math.log2(i + 1) for i, g in enumerate(gains, 1))


def oracle_ndcg3(ranked_ids: list[str], grades: dict[str, int]) -> float:
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:3]
    idcg = _dcg([float(g) for g in ideal])
    if idcg <= 0:
        return 0.0
    got = [float(grades.get(pid, 0)) for pid in ranked_ids[:3]]
    return _dcg(got) / idcg


def oracle_recall(ranked_ids: list[str], relevant: set[str], k: int) -> float:
    if not relevant:
        return 0.0
    return len(set(ranked_ids[:k]) & relevant) / len(relevant)


def oracle_bm25_all_scores(
    doc_tokens: list[list[str]], query_tokens: list[str], k1: float, b: float
) -> list[float]:
    """BM25 score of every document, recomputing df/length stats per call.

    Sums over query tokens in sequence (a repeated token contributes once
    per occurrence), mirroring the declared scoring convention.
    """
    n = len(doc_tokens)
    avg = sum(len(t) for t in doc_tokens) / n
    scores = []
    for tokens in doc_tokens:
        score = 0.0
        for term in query_tokens:
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for d in doc_tokens if term in d)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(tokens) / avg))
        scores.append(score)
    return scores


def oracle_bm25_topk(
    doc_ids: list[str],
    doc_tokens: list[list[str]],
    query_tokens: list[str],
    k1: float,
    b: float,
    k: int,
) -> list[tuple[str, float]]:
    """Top-k (id, score) pairs: only docs matching >= 1 query term, score
    descending, ties by id ascending."""
    scores = oracle_bm25_all_scores(doc_tokens, query_tokens, k1, b)
    matched = [
        (doc_ids[i], scores[i])
        for i in range(len(doc_ids))
        if any(t in doc_tokens[i] for t in query_tokens)
    ]
    matched.sort(key=lambda e: (-e[1], e[0]))
    return matched[:k]


def oracle_dense_topk(
    doc_ids: list[str], vectors, query_vec, k: int
) -> list[tuple[str, float]]:
    """Exhaustive inner products over all documents."""
    scored = []
    for i, pid in enumerate(doc_ids):
        score = float(sum(a * b for a, b in zip(vectors[i], query_vec)))
        scored.append((pid, score))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def oracle_topk(scored: list[tuple[str, float]], k: int) -> list[tuple[str, float]]:
    """Top-k (id, score) pairs under (score desc, id asc), without sorting.

    Each entry's rank is the number of entries that precede it (higher
    score, or an equal score and a smaller id), counted pair by pair.
    Ids must be unique.
    """
    def precedes(a, b):
        return a[1] > b[1] or (a[1] == b[1] and a[0] < b[0])

    out = [None] * min(k, len(scored))
    for entry in scored:
        rank = sum(1 for other in scored if precedes(other, entry))
        if rank < k:
            out[rank] = entry
    return out


def oracle_sparse_postings(texts: list[str]):
    """``(terms, offsets, ords, tfs, doc_lengths)`` of a BM25 index, built one
    posting at a time: rows in the order of the terms' UTF-8 bytes,
    ordinals increasing within each row."""
    postings, doc_lengths = [], []
    for ordinal, text in enumerate(texts):
        tokens = oracle_tokenize(text)
        doc_lengths.append(len(tokens))
        postings += [(term, ordinal, tf) for term, tf in Counter(tokens).items()]
    vocab = sorted({term for term, _, _ in postings}, key=lambda term: term.encode("utf-8"))
    terms = {term: row for row, term in enumerate(vocab)}
    rows = [terms[term] for term, _, _ in postings]
    ords = [ordinal for _, ordinal, _ in postings]
    tfs = [tf for _, _, tf in postings]
    row_arr = np.array(rows, dtype=np.int64)
    order = np.argsort(row_arr, kind="stable")
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_arr, minlength=len(terms)), out=offsets[1:])
    return (
        terms,
        offsets,
        np.array(ords, dtype=np.int32)[order],
        np.array(tfs, dtype=np.int32)[order],
        np.array(doc_lengths, dtype=np.int64),
    )


def oracle_hash_embedding(texts: list[str], dim: int) -> np.ndarray:
    """The hash provider's vectors, one token at a time: each token adds 1 to
    bucket ``crc32(token) % dim``, then each non-zero vector is divided by
    its ``np.linalg.norm``."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for v, text in zip(out, texts):
        for token in oracle_tokenize(text):
            v[zlib.crc32(token.encode("utf-8")) % dim] += 1.0
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v /= norm
    return out


def oracle_read_run(path: str) -> dict[str, RankedList]:
    """A TREC run read one row tuple at a time: each query's rows sorted by
    (score desc, docid asc), the rank column unread, queries in first-seen
    order. A repeated docid is named at its first repeat in file order, in
    the first such query."""
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, 1):
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
            if not math.isfinite(score):
                raise MalformedRecord(path, line_no, f"score {score_s!r} is not finite")
            per_query.setdefault(qid, []).append((line_no, pid, score))
    out: dict[str, RankedList] = {}
    for qid, rows in per_query.items():
        seen: set[str] = set()
        for line_no, pid, _ in rows:
            if pid in seen:
                raise MalformedRecord(path, line_no, f"docid {pid!r} repeats in query {qid!r}")
            seen.add(pid)
        out[qid] = RankedList(qid, sorted(((pid, score) for _, pid, score in rows), key=lambda e: (-e[1], e[0])))
    return out


def oracle_evaluate(run: Mapping[str, RankedList], qrels_path: str) -> dict:
    """``evaluate_run``'s report, from the definitions: every query in the
    run or the qrels is scored (``trec_eval -c``), a judged query absent
    from the run scores as an empty list and counts in ``missing_from_run``,
    and a query with no grade >= 1 is degenerate. The qrels file is read one
    line at a time, a later grade for a (query, passage) replacing an
    earlier one."""
    grades: dict[str, dict[str, int]] = {}
    with open(qrels_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                qid, _, pid, grade = parts
                grades.setdefault(qid, {})[pid] = int(grade)
    missing = [qid for qid in grades if qid not in run]
    per_sample = {}
    for qid in [*run, *missing]:
        # the canonical order, whatever order the run's entries are in
        ids = [pid for pid, _ in sorted(run[qid].entries, key=lambda e: (-e[1], e[0]))] if qid in run else []
        judged = grades.get(qid, {})
        relevant = {pid for pid, grade in judged.items() if grade >= 1}
        per_sample[qid] = {
            "mrr": oracle_mrr(ids, relevant),
            "ndcg3": oracle_ndcg3(ids, judged),
            "recall10": oracle_recall(ids, relevant, 10),
            "recall100": oracle_recall(ids, relevant, 100),
            "degenerate": not relevant,
        }
    n = len(per_sample)
    return {
        "num_samples": n,
        "missing_from_run": len(missing),
        "degenerate_count": sum(s["degenerate"] for s in per_sample.values()),
        "aggregate": {
            metric: math.fsum(s[metric] for s in per_sample.values()) / n if n else 0.0
            for metric in ("mrr", "ndcg3", "recall10", "recall100")
        },
        "per_sample": per_sample,
    }

"""Test-only helpers: file writers for fixtures (the inverse of the
``icr.corpus`` loaders and of ``ScriptedMock.from_jsonl``),
``make_overthinking`` and ``csr_postings``."""

from __future__ import annotations

import json
import random
from typing import Iterable, Sequence

import numpy as np

from icr.corpus import CQRSample, Passage, Qrels, _infer_format
from icr.crdg import CrdgConfig, Trajectory
from icr.evaluation import Indexes
from icr.genclient import ScriptedMock
from icr.prefdata import _redundant_steps, extend_redundantly
from icr.sparse_index import SparseIndex


def write_collection(passages: Iterable[Passage], path: str, format: str | None = None) -> None:
    fmt = format or _infer_format(path)
    with open(path, "w", encoding="utf-8") as fh:
        for p in passages:
            if fmt == "tsv":
                fh.write(f"{p.id}\t{p.text}\n")
            else:
                fh.write(json.dumps({"id": p.id, "text": p.text}, ensure_ascii=False) + "\n")


def write_cqr_dataset(samples: Sequence[CQRSample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            rec = {
                "sample_id": s.sample_id,
                "history": [{"query": t.query, "answer": t.answer} for t in s.history],
                "query": s.query,
                "gold_passage_ids": sorted(s.gold_passage_ids),
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def write_qrels(qrels: Qrels, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        rows = sorted((sid, pid, grade) for sid in qrels.sample_ids() for pid, grade in qrels.for_sample(sid).items())
        for sid, pid, grade in rows:
            fh.write(f"{sid} 0 {pid} {grade}\n")


def write_mock_script(mock: ScriptedMock, path: str) -> None:
    """The inverse of ``ScriptedMock.from_jsonl``."""
    with open(path, "w", encoding="utf-8") as fh:
        for (kind, fingerprint, attempt), response in mock.script.items():
            record = {"kind": kind, "fingerprint": fingerprint, "attempt": attempt, "response": response}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def make_overthinking(
    trajectory: Trajectory,
    sample: CQRSample,
    client,
    indexes: Indexes,
    config: CrdgConfig,
    multi: bool = False,
    rng: random.Random | None = None,
) -> Trajectory | None:
    """Extend a trajectory with redundant steps; None if not constructible.

    With ``multi`` the number of redundant steps is drawn uniformly from
    {1, 2, 3, 4}; otherwise one step is appended.
    """
    if not trajectory.steps:
        return None
    k = _redundant_steps(multi, rng or random.Random())
    return extend_redundantly(trajectory, sample, client, indexes, config, k)


def vocabulary(index: SparseIndex) -> list[str]:
    """A sparse index's terms in row order, read from its string table."""
    starts = index.term_starts.tolist()
    return [index.term_bytes[lo:hi].decode("utf-8") for lo, hi in zip(starts, starts[1:])]


def csr_postings(index: SparseIndex) -> tuple[np.ndarray, np.ndarray]:
    """A sparse index's ordinals and tfs as flat CSR arrays, row after row."""
    rows = [index.postings(row) for row in range(len(index.term_lengths))]
    empty = np.zeros(0, dtype=np.int32)
    return np.concatenate([r[0] for r in rows] or [empty]), np.concatenate([r[1] for r in rows] or [empty])

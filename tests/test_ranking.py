from __future__ import annotations

import math
import random

import numpy as np
import pytest

from icr.corpus import Qrels
from icr.errors import MalformedRecord
from icr.evaluation import evaluate_run
from icr.ranking import RankedList, id_ranks, ranked_from_scores, read_run, top_k, write_run

from .oracles import oracle_topk


def _top_k(ids, scores, k, ords=None):
    return top_k("q", np.array(scores, dtype=np.float64), ids, id_ranks(ids), k, ords)


def test_id_ranks_follow_string_order():
    ids = ["d10", "d9", "a", "D", "é", "d1"]
    ranks = id_ranks(ids)
    assert [ids[i] for i in np.argsort(ranks)] == sorted(ids)


def test_ties_straddling_the_kth_score():
    # ids out of file order; four passages tie at the k-th score
    ids = ["p7", "p3", "p9", "p1", "p5", "p2"]
    scores = [3.0, 2.0, 2.0, 2.0, 1.0, 2.0]
    got = _top_k(ids, scores, 3)
    assert got.entries == [("p7", 3.0), ("p1", 2.0), ("p2", 2.0)]
    assert got.entries == oracle_topk(list(zip(ids, scores)), 3)


def test_signed_zero_scores_tie_and_keep_their_sign():
    ids = ["c", "a", "b", "d"]
    scores = [0.0, -0.0, 0.0, -1.0]
    got = _top_k(ids, scores, 3)
    want = ranked_from_scores("q", dict(zip(ids, scores)), 3)
    assert got.ids() == want.ids() == ["a", "b", "c"]
    assert [math.copysign(1.0, s) for _, s in got.entries] == [-1.0, 1.0, 1.0]


def test_k_beyond_candidates_returns_all_in_order():
    ids = ["b", "a", "c"]
    got = _top_k(ids, [1.0, 1.0, 5.0], 10)
    assert got.entries == [("c", 5.0), ("a", 1.0), ("b", 1.0)]


def test_no_candidates_gives_empty_list():
    got = _top_k(["a", "b"], [], 5, ords=np.array([], dtype=np.int64))
    assert got.entries == []


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        _top_k(["a"], [1.0], 0)


def test_random_ties_match_oracle_and_ranked_from_scores():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 60)
        ids = [f"x{rng.randint(0, 999):03d}" for _ in range(n)]
        ids = list(dict.fromkeys(ids))
        rng.shuffle(ids)
        # few distinct values, so ties cross the cut often
        scores = [rng.choice([0.0, -0.0, 0.5, 1.0, 1.0, 2.5]) for _ in ids]
        k = rng.randint(1, len(ids) + 3)
        subset = sorted(rng.sample(range(len(ids)), rng.randint(0, len(ids))))
        ords = np.array(subset, dtype=np.int64)
        got = _top_k(ids, [scores[o] for o in subset], k, ords)
        pairs = [(ids[o], scores[o]) for o in subset]
        assert got.entries == oracle_topk(pairs, k)
        assert got.entries == ranked_from_scores("q", dict(pairs), k).entries


def test_read_run_rejects_repeated_docid(tmp_path):
    # d1 listed twice for q1 would score NDCG@3 1.0 with d1 and d2 relevant,
    # where 0.613 is correct
    path = tmp_path / "run.trec"
    path.write_text("q1 Q0 d1 1 2.0 T\nq2 Q0 d1 1 2.0 T\nq1 Q0 d1 2 1.0 T\n")
    with pytest.raises(MalformedRecord) as err:
        read_run(str(path))
    assert err.value.line_no == 3
    assert "d1" in err.value.reason and "q1" in err.value.reason


@pytest.mark.parametrize("score", ["nan", "inf", "-Infinity", "1e999"])
def test_read_run_rejects_a_non_finite_score(tmp_path, score):
    # a NaN score would sit anywhere in a ranked list and pass evaluation
    path = tmp_path / "run.trec"
    path.write_text(f"q1 Q0 d1 1 2.0 T\nq1 Q0 d2 2 {score} T\n")
    with pytest.raises(MalformedRecord) as err:
        read_run(str(path))
    assert (err.value.line_no, err.value.reason) == (2, f"score {score!r} is not finite")


def test_read_run_accepts_the_int64_extremes(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text(f"q1 Q0 a {2**63 - 1} 1.0 T\nq1 Q0 b {-(2**63)} 1.0 T\n")
    assert read_run(str(path))["q1"].ids() == ["a", "b"]


@pytest.mark.parametrize("rank", [str(2**63), "9" * 40, "1.5", "x"])
def test_read_run_does_not_read_the_rank_column(tmp_path, rank):
    # trec_eval orders by score and ignores the rank column, and so does icr
    path = tmp_path / "run.trec"
    path.write_text(f"q1 Q0 d1 1 2.0 T\n\nq1 Q0 d2 {rank} 1.0 T\n")
    assert read_run(str(path))["q1"].entries == [("d1", 2.0), ("d2", 1.0)]


def test_read_run_orders_by_score_then_id(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("q1 Q0 b 2 1.0 T\nq1 Q0 c 1 3.0 T\nq1 Q0 a 2 1.0 T\n")
    assert read_run(str(path))["q1"].entries == [("c", 3.0), ("a", 1.0), ("b", 1.0)]


def test_empty_list_counts_as_missing_query(tmp_path):
    # q1 finds its relevant passage at rank 1; q2 retrieves nothing, so
    # write_run writes no line for it
    path = tmp_path / "run.trec"
    assert write_run([RankedList("q1", [("d1", 1.0)]), RankedList("q2", [])], str(path)) == 1
    qrels = Qrels()
    qrels.set("q1", "d1", 1)
    qrels.set("q2", "d2", 1)
    report = evaluate_run(read_run(str(path)), qrels)
    assert report["num_samples"] == 2
    assert report["missing_from_run"] == 1
    assert report["aggregate"]["mrr"] == 0.5
    assert report["per_sample"]["q2"] == {
        "mrr": 0.0, "ndcg3": 0.0, "recall10": 0.0, "recall100": 0.0, "degenerate": False,
    }

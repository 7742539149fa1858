from __future__ import annotations

import dataclasses
import json
import math
import random

import pytest

from icr.corpus import CQRSample, Passage, Qrels
from icr.dense_index import HashEmbeddingProvider, build_dense_index
from icr.errors import GoldMissingFromCollection
from icr.evaluation import (
    Indexes,
    MetricSet,
    QualityScore,
    delta_f_profile,
    evaluate_run,
    f_score,
    gsr,
    lsr,
    metric_set,
    quality_from_dict,
)
from icr.ranking import RankedList
from icr.sparse_index import build_sparse_index

from .oracles import oracle_mrr, oracle_ndcg3, oracle_recall


def _ranked(ids):
    return RankedList("q", [(pid, float(len(ids) - i)) for i, pid in enumerate(ids)])


def _ndcg3(ids, grades):
    return metric_set(_ranked(ids), set(), grades).ndcg3


def test_mrr_cases():
    assert metric_set(_ranked(["a", "b", "c"]), {"a"}).mrr == 1.0
    assert metric_set(_ranked(["x", "y", "z", "a"]), {"a"}).mrr == 0.25
    assert metric_set(_ranked(["x", "y"]), {"a"}).mrr == 0.0


def test_ndcg_single_relevant_rank1():
    assert _ndcg3(["a", "b", "c"], {"a": 1}) == 1.0


def test_ndcg_single_relevant_rank3():
    # frozen from the definition: (1/log2(4)) / (1/log2(2)) = 0.5
    got = _ndcg3(["x", "y", "a"], {"a": 1})
    assert got == pytest.approx(0.5, abs=1e-12)


def test_ndcg_no_relevant_judged():
    assert _ndcg3(["x", "y"], {}) == 0.0
    assert _ndcg3(["x", "y"], {"x": 0}) == 0.0


def test_ndcg_graded():
    # grades 2,1 ideal order vs retrieved order [1-grade, 2-grade]
    grades = {"a": 2, "b": 1}
    ideal = 2 / math.log2(2) + 1 / math.log2(3)
    got_dcg = 1 / math.log2(2) + 2 / math.log2(3)
    assert _ndcg3(["b", "a"], grades) == pytest.approx(got_dcg / ideal, abs=1e-12)


def test_ndcg_earlier_relevant_never_worse():
    grades = {"a": 1, "b": 1}
    worse = _ndcg3(["x", "a", "b"], grades)
    better = _ndcg3(["a", "b", "x"], grades)
    assert better >= worse


def test_recall_cases():
    assert metric_set(_ranked(["a", "b", "c"]), {"a", "b"}).recall10 == 1.0
    assert metric_set(_ranked(["a"] + [f"x{i}" for i in range(12)]), {"a", "b"}).recall10 == 0.5
    assert metric_set(_ranked(["a"]), set()).recall10 == 0.0


def test_metrics_match_oracle_on_random_rankings():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 200)
        ids = [f"d{i:03d}" for i in range(n)]
        rng.shuffle(ids)
        judged = {pid: rng.randint(0, 3) for pid in rng.sample(ids, k=min(n, rng.randint(0, 10)))}
        # some judged docs never retrieved
        judged[f"m{rng.randint(0, 99)}"] = rng.randint(0, 3)
        relevant = {pid for pid, g in judged.items() if g >= 1}
        got = metric_set(_ranked(ids), relevant, judged)
        assert got.mrr == pytest.approx(oracle_mrr(ids, relevant), abs=1e-9)
        assert got.ndcg3 == pytest.approx(oracle_ndcg3(ids, judged), abs=1e-9)
        assert got.recall10 == pytest.approx(oracle_recall(ids, relevant, 10), abs=1e-9)
        assert got.recall100 == pytest.approx(oracle_recall(ids, relevant, 100), abs=1e-9)


def test_metric_set_binary_default():
    ms = metric_set(_ranked(["a", "b"]), {"a"})
    assert ms == MetricSet(mrr=1.0, ndcg3=1.0, recall10=1.0, recall100=1.0)
    assert ms.total() == 4.0


@pytest.fixture()
def tiny_indexes():
    passages = [
        Passage("g1", "solar panel efficiency"),
        Passage("d1", "wind turbine blades"),
        Passage("d2", "panel discussion notes"),
    ]
    provider = HashEmbeddingProvider(dim=64)
    return build_sparse_index(passages), build_dense_index(passages, provider), provider


def test_f_score_rank1_both_is_8(tiny_indexes):
    sparse, dense, provider = tiny_indexes
    sample = CQRSample("s1", [], "solar", {"g1"})
    qs = f_score("solar panel efficiency", sample, Indexes(sparse, dense, provider), "both")
    assert qs.f == pytest.approx(8.0)
    assert qs.sparse.total() == pytest.approx(4.0)
    assert qs.dense.total() == pytest.approx(4.0)
    assert quality_from_dict(qs.as_dict()) == qs


def test_as_dict_matches_dataclasses_asdict_key_for_key():
    # report and trajectory bytes depend on the key order as well
    qs = QualityScore(1.5, MetricSet(0.5, 0.25, 0.5, 0.25), MetricSet(recall100=1.0), "both")
    assert json.dumps(qs.as_dict()) == json.dumps(dataclasses.asdict(qs))


def test_f_score_gold_never_retrieved(tiny_indexes):
    sparse, dense, provider = tiny_indexes
    sample = CQRSample("s1", [], "solar", {"g1"})
    qs = f_score("wind turbine", sample, Indexes(sparse, dense, provider), "both")
    # dense full-scan may still reach gold at depth; sparse side is 0
    assert qs.sparse.total() == 0.0


def test_f_score_sparse_only_mode(tiny_indexes):
    sparse, _, _ = tiny_indexes
    sample = CQRSample("s1", [], "solar", {"g1"})
    qs = f_score("solar panel efficiency", sample, Indexes(sparse), "sparse_only")
    assert qs.f == pytest.approx(4.0)
    assert qs.dense.total() == 0.0
    assert qs.mode == "sparse_only"


def test_f_score_dense_only_mode(tiny_indexes):
    _, dense, provider = tiny_indexes
    sample = CQRSample("s1", [], "solar", {"g1"})
    qs = f_score("solar panel efficiency", sample, Indexes(dense=dense, provider=provider), "dense_only")
    assert qs.f == qs.dense.total()
    assert qs.sparse.total() == 0.0
    assert qs.mode == "dense_only"


def test_ndcg_moving_relevant_earlier_never_decreases():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 30)
        ids = [f"d{i}" for i in range(n)]
        rng.shuffle(ids)
        grades = {pid: rng.randint(0, 2) for pid in rng.sample(ids, k=rng.randint(1, n))}
        before = _ndcg3(ids, grades)
        # swap one relevant doc with the doc before it
        rel_positions = [i for i, pid in enumerate(ids) if grades.get(pid, 0) > 0 and i > 0]
        if not rel_positions:
            continue
        i = rng.choice(rel_positions)
        if grades.get(ids[i - 1], 0) > grades.get(ids[i], 0):
            continue  # would demote a better doc
        ids[i - 1], ids[i] = ids[i], ids[i - 1]
        after = _ndcg3(ids, grades)
        assert after >= before - 1e-12


def test_f_score_gold_missing(tiny_indexes):
    sparse, dense, provider = tiny_indexes
    sample = CQRSample("s1", [], "solar", {"nope"})
    with pytest.raises(GoldMissingFromCollection) as err:
        f_score("solar", sample, Indexes(sparse, dense, provider), "both")
    assert err.value.ids == ["nope"]


def test_f_monotone_in_components():
    base = MetricSet(0.2, 0.3, 0.4, 0.5)
    for field in ("mrr", "ndcg3", "recall10", "recall100"):
        bumped = MetricSet(**{**base.as_dict(), field: getattr(base, field) + 0.1})
        assert bumped.total() > base.total()


def test_lsr_gsr_hand_cases():
    assert lsr([[1, 2, 3]]) == 1.0
    assert lsr([[1, 3, 2]]) == 0.5
    assert lsr([[1, 2, 3], [1, 3, 2]]) == 0.75
    assert gsr([[1, 2, 3], [1, 3, 2]]) == 0.5
    assert gsr([[1, 2], [2, 3]]) == 1.0


def test_lsr_empty_path_counts_as_one():
    assert lsr([[5.0]]) == 1.0
    assert gsr([[5.0]]) == 1.0


def test_gsr_never_exceeds_lsr_random():
    rng = random.Random(5)
    for _ in range(200):
        paths = [
            [rng.uniform(0, 8) for _ in range(rng.randint(1, 7))]
            for _ in range(rng.randint(1, 12))
        ]
        assert gsr(paths) <= lsr(paths) + 1e-12


def test_delta_f_profile_cases():
    assert delta_f_profile([[0, 2, 3]], [2]) == {2: [2.0, 1.0]}
    got = delta_f_profile([[0, 2, 3], [0, 4, 7]], [2])
    assert got == {2: [3.0, 2.0]}
    assert delta_f_profile([[0, 2, 3]], [5]) == {5: []}


def test_evaluate_run_report():
    qrels = Qrels()
    qrels.set("s1", "a", 1)
    run = {
        "s1": _ranked(["a", "b"]),
        "s2": _ranked(["x"]),  # nothing judged: degenerate
    }
    report = evaluate_run(run, qrels)
    assert report["num_samples"] == 2
    assert report["degenerate_count"] == 1
    assert report["per_sample"]["s1"]["mrr"] == 1.0
    assert report["per_sample"]["s2"]["degenerate"] is True
    assert report["aggregate"]["mrr"] == 0.5

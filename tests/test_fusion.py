from __future__ import annotations

import random

import pytest

from icr.errors import EmptyInput
from icr.fusion import FusionConfig, fuse
from icr.ranking import RankedList


def _list(tag, ids):
    return RankedList(tag, [(pid, float(len(ids) - i)) for i, pid in enumerate(ids)])


def test_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(k=0)
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            FusionConfig(k=k)
    with pytest.raises(ValueError):
        FusionConfig(depth=0)
    with pytest.raises(ValueError):
        FusionConfig(mode="median")


def test_single_list_prrf_preserves_ordering():
    lst = _list("q", ["a", "c", "b"])
    fused = fuse([lst], FusionConfig(mode="prrf"))
    assert fused.ids() == ["a", "c", "b"]
    # score of every doc is 1/(rank+k)
    assert fused.entries[0][1] == pytest.approx(1 / 61)
    assert fused.entries[1][1] == pytest.approx(1 / 62)


def test_two_list_prrf_hand_example():
    # L1=[pA,pB], L2=[pB,pA], k=60
    l1 = _list("q", ["pA", "pB"])
    l2 = _list("q", ["pB", "pA"])
    fused = fuse([l1, l2], FusionConfig(k=60, mode="prrf", depth=10))
    scores = dict(fused.entries)
    assert scores["pA"] == pytest.approx(1 / 61 + 2 / 62, abs=1e-12)
    assert scores["pB"] == pytest.approx(1 / 62 + 2 / 61, abs=1e-12)
    assert fused.ids() == ["pB", "pA"]


def test_two_list_rrf_ties_break_by_id():
    l1 = _list("q", ["pA", "pB"])
    l2 = _list("q", ["pB", "pA"])
    fused = fuse([l1, l2], FusionConfig(k=60, mode="rrf", depth=10))
    scores = dict(fused.entries)
    assert scores["pA"] == pytest.approx(scores["pB"], abs=1e-15)
    assert fused.ids() == ["pA", "pB"]


def test_final_only_returns_last_list():
    l1 = _list("q", ["a", "b"])
    l2 = _list("q", ["c", "d"])
    fused = fuse([l1, l2], FusionConfig(mode="final_only"))
    assert fused.entries == l2.entries


def test_final_only_skips_trailing_empty_lists():
    l1 = _list("q", ["a", "b"])
    fused = fuse([l1, RankedList("q"), RankedList("q")], FusionConfig(mode="final_only"))
    assert fused.entries == l1.entries
    assert fuse([RankedList("q")] * 2, FusionConfig(mode="final_only")).entries == []


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        fuse([], FusionConfig())


def test_later_list_dominance():
    # same rank in exactly one list each: later iteration wins under prrf,
    # ties (id order) under rrf
    l1 = _list("q", ["early"])
    l2 = _list("q", ["later"])
    prrf = fuse([l1, l2], FusionConfig(mode="prrf"))
    assert prrf.ids() == ["later", "early"]
    rrf = fuse([l1, l2], FusionConfig(mode="rrf"))
    scores = dict(rrf.entries)
    assert scores["early"] == pytest.approx(scores["later"], abs=1e-15)
    assert rrf.ids() == ["early", "later"]


def test_rrf_order_invariant_prrf_not():
    rng = random.Random(2)
    docs = [f"d{i}" for i in range(8)]
    lists = []
    for tag in range(4):
        ids = docs[:]
        rng.shuffle(ids)
        lists.append(_list("q", ids[: rng.randint(2, 8)]))
    perm = lists[::-1]
    rrf_a = fuse(lists, FusionConfig(mode="rrf"))
    rrf_b = fuse(perm, FusionConfig(mode="rrf"))
    assert dict(rrf_a.entries) == pytest.approx(dict(rrf_b.entries))
    assert rrf_a.ids() == rrf_b.ids()


def test_missing_doc_contributes_zero():
    l1 = _list("q", ["a", "b"])
    l2 = _list("q", ["a"])
    fused = fuse([l1, l2], FusionConfig(mode="rrf"))
    scores = dict(fused.entries)
    assert scores["b"] == pytest.approx(1 / 62)
    assert scores["a"] == pytest.approx(1 / 61 + 1 / 61)


def test_depth_truncation():
    l1 = _list("q", [f"d{i}" for i in range(10)])
    fused = fuse([l1], FusionConfig(depth=3))
    assert len(fused) == 3


def test_idempotent_and_deterministic():
    l1 = _list("q", ["a", "b", "c"])
    l2 = _list("q", ["c", "a"])
    cfg = FusionConfig(mode="prrf")
    assert fuse([l1, l2], cfg).entries == fuse([l1, l2], cfg).entries

from __future__ import annotations

import gzip
import json
import math
import random
import zipfile

import numpy as np
import pytest

from icr.corpus import Passage
from icr.errors import DataError, EmptyCollection
from icr.sparse_index import (
    BM25_PROFILES,
    INDEX_VERSION,
    Bm25Params,
    build_sparse_index,
    load_sparse_index,
    save_sparse_index,
    search_sparse,
    tokenize,
)

from .oracles import oracle_bm25_topk


def _postings(index) -> dict[str, list[tuple[int, int]]]:
    """The CSR arrays read back as term -> [(ordinal, tf)]."""
    out = {}
    for term, row in index.terms.items():
        lo, hi = index.offsets[row], index.offsets[row + 1]
        out[term] = list(zip(index.ords[lo:hi].tolist(), index.tfs[lo:hi].tolist()))
    return out


def test_tokenize_basic():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("") == []
    assert tokenize("BM25-k1") == ["bm25", "k1"]
    assert tokenize("under_score") == ["under", "score"]


def test_build_counts_by_hand():
    index = build_sparse_index([Passage("p1", "a b"), Passage("p2", "a")])
    assert index.doc_count == 2
    assert index.avg_doc_length == 1.5
    assert _postings(index) == {"a": [(0, 1), (1, 1)], "b": [(0, 1)]}
    assert index.offsets.tolist() == [0, 2, 3]
    assert index.ords.dtype == np.int32 and index.tfs.dtype == np.int32
    assert index.doc_lengths.tolist() == [2, 1]
    assert index.ids == ["p1", "p2"]


def test_build_empty_collection():
    with pytest.raises(EmptyCollection):
        build_sparse_index([])


def test_param_validation():
    with pytest.raises(ValueError):
        Bm25Params(k1=-0.1)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)
    assert BM25_PROFILES["qrecc"] == Bm25Params(0.82, 0.68)


def test_single_term_score_matches_hand_formula():
    # 3 docs; "cat" appears only in p2 (twice, doc length 3)
    docs = [
        Passage("p1", "dog runs fast"),
        Passage("p2", "cat cat sleeps"),
        Passage("p3", "bird flies"),
    ]
    params = Bm25Params(k1=0.9, b=0.4)
    index = build_sparse_index(docs, params)
    result = search_sparse(index, "cat", 10)
    # hand evaluation: N=3, df=1, tf=2, len=3, avg=(3+3+2)/3
    avg = 8 / 3
    idf = math.log(1 + (3 - 1 + 0.5) / (1 + 0.5))
    expected = idf * 2 * (0.9 + 1) / (2 + 0.9 * (1 - 0.4 + 0.4 * 3 / avg))
    assert [pid for pid, _ in result.entries] == ["p2"]
    assert result.entries[0][1] == pytest.approx(expected, abs=1e-9)


def test_unknown_terms_yield_empty():
    index = build_sparse_index([Passage("p1", "a"), Passage("p2", "b")])
    assert search_sparse(index, "zzz", 5).entries == []


def test_k_truncation_keeps_max():
    index = build_sparse_index(
        [Passage("p1", "x y"), Passage("p2", "x"), Passage("p3", "x z")]
    )
    full = search_sparse(index, "x", 10)
    top1 = search_sparse(index, "x", 1)
    assert len(top1) == 1
    assert top1.entries[0] == full.entries[0]


def test_score_monotone_in_term_frequency():
    # adding an occurrence of the query term (holding length fixed by
    # swapping out a filler token) never decreases the doc's score
    params = Bm25Params()
    base = [Passage("p1", "cat pad pad pad"), Passage("p2", "dog dog cat pad")]
    more = [Passage("p1", "cat cat pad pad"), Passage("p2", "dog dog cat pad")]
    s_base = dict(search_sparse(build_sparse_index(base, params), "cat", 10).entries)
    s_more = dict(search_sparse(build_sparse_index(more, params), "cat", 10).entries)
    assert s_more["p1"] >= s_base["p1"]


def _random_corpus(rng: random.Random, max_docs: int = 50):
    vocab = [f"t{i}" for i in range(15)]
    n = rng.randint(1, max_docs)
    passages = []
    for i in range(n):
        length = rng.randint(0, 12)
        passages.append(Passage(f"d{i:03d}", " ".join(rng.choices(vocab, k=length))))
    return passages, vocab


def test_oracle_equivalence_random_corpora():
    rng = random.Random(7)
    for _ in range(60):
        passages, vocab = _random_corpus(rng)
        params = Bm25Params(k1=rng.uniform(0.0, 2.0), b=rng.uniform(0.0, 1.0))
        if not any(p.text for p in passages):
            continue
        index = build_sparse_index(passages, params)
        query_tokens = rng.choices(vocab + ["zzz"], k=rng.randint(1, 8))
        k = rng.randint(1, len(passages) + 3)
        got = search_sparse(index, " ".join(query_tokens), k)
        expected = oracle_bm25_topk(
            [p.id for p in passages],
            [tokenize(p.text) for p in passages],
            query_tokens,
            params.k1,
            params.b,
            k,
        )
        assert got.ids() == [pid for pid, _ in expected]
        for (gp, gs), (ep, es) in zip(got.entries, expected):
            assert gp == ep
            assert gs == pytest.approx(es, abs=1e-9)


def test_rebuild_is_byte_identical(tmp_path):
    passages = [Passage("p1", "alpha beta"), Passage("p2", "beta gamma gamma")]
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_sparse_index(build_sparse_index(passages), str(a))
    save_sparse_index(build_sparse_index(passages), str(b))
    assert a.read_bytes() == b.read_bytes()
    with zipfile.ZipFile(a) as zf:
        members = zf.infolist()
    assert [m.filename for m in members] == [
        "meta.npy", "offsets.npy", "ord_gaps.npy", "tfs.npy", "doc_lengths.npy",
    ]
    assert {m.date_time for m in members} == {(1980, 1, 1, 0, 0, 0)}


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(5)
    corpora = [
        [Passage("p1", "alpha beta"), Passage("p2", "beta gamma gamma")],
        _random_corpus(rng, max_docs=80)[0],  # many rows, gaps and repeated tfs
    ]
    for i, passages in enumerate(corpora):
        index = build_sparse_index(passages, Bm25Params(0.82, 0.68))
        path = tmp_path / f"idx{i}"
        save_sparse_index(index, str(path))
        loaded = load_sparse_index(str(path))
        assert loaded.params == index.params
        assert loaded.terms == index.terms
        assert _postings(loaded) == _postings(index)
        assert loaded.doc_lengths.tolist() == index.doc_lengths.tolist()
        assert loaded.ids == index.ids
        for name in ("offsets", "ords", "tfs", "doc_lengths", "id_rank", "length_norm"):
            got, want = getattr(loaded, name), getattr(index, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert loaded.avg_doc_length == index.avg_doc_length
        query = "beta gamma t1 t2 t3"
        assert search_sparse(loaded, query, 5).entries == search_sparse(index, query, 5).entries


def test_top100_matches_oracle_with_ties():
    # a small vocabulary over many passages gives many equal scores, and
    # duplicated texts tie exactly across the depth-100 cut
    rng = random.Random(29)
    vocab = [f"t{i}" for i in range(6)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 5))) for _ in range(150)]
    passages = [Passage(f"d{rng.randint(0, 10**6):07d}-{i}", t) for i, t in enumerate(texts + texts)]
    rng.shuffle(passages)
    params = Bm25Params()
    index = build_sparse_index(passages, params)
    for _ in range(20):
        query = rng.choices(vocab + ["zzz"], k=rng.randint(1, 4))
        got = search_sparse(index, " ".join(query), 100)
        want = oracle_bm25_topk(
            [p.id for p in passages], [tokenize(p.text) for p in passages], query, params.k1, params.b, 100
        )
        assert got.ids() == [pid for pid, _ in want]
        for (_, gs), (_, ws) in zip(got.entries, want):
            assert gs == pytest.approx(ws, abs=1e-9)


def test_version_1_artifact_is_rejected(tmp_path):
    path = tmp_path / "old.idx.gz"
    payload = {
        "format": "icr-sparse-index", "version": 1, "params": {"k1": 0.9, "b": 0.4},
        "ids": ["p1"], "doc_lengths": [1], "postings": {"a": [[0, 1]]},
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(DataError) as err:
        load_sparse_index(str(path))
    assert "version 1" in str(err.value) and "build-index" in str(err.value)


def test_other_version_is_rejected(tmp_path, monkeypatch):
    import icr.sparse_index as sparse_index

    path = tmp_path / "future.idx"
    monkeypatch.setattr(sparse_index, "INDEX_VERSION", INDEX_VERSION + 1)
    save_sparse_index(build_sparse_index([Passage("p1", "a")]), str(path))
    monkeypatch.undo()
    with pytest.raises(DataError) as err:
        load_sparse_index(str(path))
    assert f"version {INDEX_VERSION + 1}" in str(err.value) and "build-index" in str(err.value)


def test_malformed_artifacts_are_data_errors(tmp_path):
    good = tmp_path / "good.idx"
    save_sparse_index(build_sparse_index([Passage("p1", "a b"), Passage("p2", "b")]), str(good))
    truncated = tmp_path / "truncated.idx"
    truncated.write_bytes(good.read_bytes()[:-40])
    text = tmp_path / "text.idx"
    text.write_text("not an index\n")
    for path in (truncated, text):
        with pytest.raises(DataError):
            load_sparse_index(str(path))

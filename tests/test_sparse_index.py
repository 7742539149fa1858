from __future__ import annotations

import gzip
import io
import json
import math
import random
import sys
import threading
import zipfile
import zlib
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import icr.sparse_index as sparse_index
from icr.cli import main
from icr.config import BM25_PROFILES, Bm25Params
from icr.corpus import Passage
from icr.errors import DataError, EmptyCollection
from icr.sparse_index import (
    INDEX_VERSION,
    _from_planes,
    _to_planes,
    build_sparse_index,
    load_sparse_index,
    save_sparse_index,
    search_sparse,
    tokenize,
)

from .conftest import build_cli_workspace
from .oracles import oracle_bm25_topk, oracle_sparse_postings
from .support import csr_postings

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _postings(index) -> dict[str, list[tuple[int, int]]]:
    """The CSR rows read back as term -> [(ordinal, tf)]."""
    out = {}
    for term, row in index.terms.items():
        ords, tfs = index.postings(row)
        out[term] = list(zip(ords.tolist(), tfs.tolist()))
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
    assert all(array.dtype == np.int32 for row in (0, 1) for array in index.postings(row))
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
        "meta.npy", "offsets.npy", "doc_lengths.npy", "id_rank.npy", "postings.npy", "blocks.npy",
    ]
    assert {m.date_time for m in members} == {(1980, 1, 1, 0, 0, 0)}
    assert [m.filename for m in members if m.compress_type == zipfile.ZIP_STORED] == ["postings.npy"]


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
        for name in ("offsets", "doc_lengths", "id_rank", "length_norm"):
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


def _assert_equals_oracle(texts: list[str]) -> None:
    index = build_sparse_index([Passage(f"p{i}", t) for i, t in enumerate(texts)])
    terms, offsets, ords, tfs, doc_lengths = oracle_sparse_postings(texts)
    assert index.terms == terms and list(index.terms) == list(terms)
    got_ords, got_tfs = csr_postings(index)
    for name, got, want in (
        ("offsets", index.offsets, offsets),
        ("ords", got_ords, ords),
        ("tfs", got_tfs, tfs),
        ("doc_lengths", index.doc_lengths, doc_lengths),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_build_equals_per_posting_oracle_on_random_corpora():
    # a few terms over many passages: most rows are long, and tfs repeat
    rng = random.Random(13)
    for _ in range(40):
        vocab = [f"t{i}" for i in range(rng.randint(1, 8))]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 15))) for _ in range(rng.randint(1, 120))]
        _assert_equals_oracle(texts)


@pytest.mark.parametrize(
    "texts",
    [[""], ["", "", ""], ["a a a a"], ["", "b b", "", "a b a b a"], ["x"] * 65, ["Ünï ünï CODE code_code"]],
    ids=["one-empty", "all-empty", "one-repeated", "empty-between", "65-same", "unicode-case"],
)
def test_build_equals_per_posting_oracle_on_edge_texts(texts):
    _assert_equals_oracle(texts)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_byte_planes_round_trip(dtype):
    values = np.array([0, np.iinfo(dtype).max, 0, 1], dtype=dtype)
    planes = _to_planes(values)
    itemsize = np.dtype(dtype).itemsize
    assert planes.dtype == np.uint8 and planes.shape == (itemsize, 4)
    assert planes[0].tolist() == [0, 255, 0, 1]  # least significant byte first
    back = _from_planes("x.idx", "m", planes)
    assert back.dtype == np.dtype(dtype) and np.array_equal(back, values)
    assert _from_planes("x.idx", "m", _to_planes(values[:0])).dtype == np.dtype(dtype)


def _write_members(path, members: dict) -> None:
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name, array in members.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, array, allow_pickle=False)
            zf.writestr(f"{name}.npy", buf.getvalue())


def _members(path) -> dict:
    with zipfile.ZipFile(path) as zf:
        return {
            name[: -len(".npy")]: np.lib.format.read_array(io.BytesIO(zf.read(name)), allow_pickle=False)
            for name in zf.namelist()
        }


def test_version_2_artifact_is_rejected(tmp_path):
    # version 2 stored every member as a flat array of its narrowed dtype
    meta = {"format": "icr-sparse-index", "version": 2, "params": {"k1": 0.9, "b": 0.4}, "ids": ["p1"], "terms": ["a"]}
    path = tmp_path / "v2.idx"
    _write_members(path, {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        "offsets": np.array([0, 1], dtype=np.uint8),
        "ord_gaps": np.array([0], dtype=np.uint8),
        "tfs": np.array([1], dtype=np.uint8),
        "doc_lengths": np.array([1], dtype=np.uint8),
    })
    with pytest.raises(DataError) as err:
        load_sparse_index(str(path))
    assert "version 2" in str(err.value) and "build-index" in str(err.value)


@pytest.mark.parametrize(
    "name, array",
    [
        ("blocks", np.array([0, 0], dtype=np.uint8)),  # flat, as in version 2
        ("doc_lengths", np.ones((3, 2), dtype=np.uint8)),  # three planes
        ("doc_lengths", np.ones((2, 2), dtype=np.uint16)),  # planes of a wider dtype
        ("offsets", np.ones((1, 2, 2), dtype=np.uint8)),
        ("meta", None),  # the version 3 header, flat
    ],
    ids=["flat", "three-planes", "uint16-planes", "three-dims", "flat-meta"],
)
def test_malformed_plane_members_are_data_errors(tmp_path, name, array):
    good = tmp_path / "good.idx"
    save_sparse_index(build_sparse_index([Passage("p1", "a b"), Passage("p2", "b")]), str(good))
    members = _members(good)
    members[name] = members["meta"].ravel() if array is None else array
    bad = tmp_path / "bad.idx"
    _write_members(bad, members)
    with pytest.raises(DataError, match="byte-plane"):
        load_sparse_index(str(bad))


def test_version_3_artifact_is_rejected(tmp_path):
    # version 3 had the same members but ``id_rank``
    good = tmp_path / "good.idx"
    save_sparse_index(build_sparse_index([Passage("p1", "a b"), Passage("p2", "b")]), str(good))
    members = _members(good)
    del members["id_rank"]
    meta = json.loads(members["meta"].tobytes().decode("utf-8"))
    meta["version"] = 3
    members["meta"] = _to_planes(np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))
    path = tmp_path / "v3.idx"
    _write_members(path, members)
    with pytest.raises(DataError) as err:
        load_sparse_index(str(path))
    assert "version 3" in str(err.value) and "re-run build-index to write version 5" in str(err.value)


@pytest.mark.parametrize(
    "ranks",
    [[0, 0, 2], [2, 1], [0, 1, 2, 3], [1, 2, 3]],
    ids=["repeated", "too-few", "too-many", "out-of-range"],
)
def test_stored_id_ranks_that_are_not_a_permutation_are_data_errors(tmp_path, ranks):
    good = tmp_path / "good.idx"
    save_sparse_index(build_sparse_index([Passage("p1", "a"), Passage("p2", "b"), Passage("p3", "c")]), str(good))
    members = _members(good)
    members["id_rank"] = _to_planes(np.array(ranks, dtype=np.uint8))
    bad = tmp_path / "bad.idx"
    _write_members(bad, members)
    with pytest.raises(DataError, match="permutation"):
        load_sparse_index(str(bad))


def test_load_takes_the_stored_id_ranks(tmp_path, monkeypatch):
    import icr.sparse_index as sparse_index

    path = tmp_path / "idx"
    index = build_sparse_index([Passage("p2", "a"), Passage("p10", "a"), Passage("p1", "a")])
    save_sparse_index(index, str(path))
    monkeypatch.setattr(sparse_index, "id_ranks", lambda ids: pytest.fail("load sorted the ids"))
    loaded = load_sparse_index(str(path))
    assert loaded.id_rank.tolist() == [2, 1, 0]
    assert search_sparse(loaded, "a", 3).ids() == ["p1", "p10", "p2"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: {k: v for k, v in meta.items() if k != "ids"},
        lambda meta: dict(meta, ids=7),
        lambda meta: dict(meta, terms={"a": 0}),
        lambda meta: dict(meta, params={"k1": "x"}),
        lambda meta: dict(meta, params={"k1": math.nan, "b": 0.4}),
        lambda meta: dict(meta, params={"k1": 0.9, "c": 1}),
        lambda meta: dict(meta, params=[0.9, 0.4]),
    ],
    ids=["no-ids", "ids-not-a-list", "terms-not-a-list", "k1-not-a-number", "k1-nan", "unknown-param", "params-not-an-object"],
)
def test_a_malformed_meta_member_is_a_data_error_naming_the_index(tmp_path, edit):
    good = tmp_path / "good.idx"
    save_sparse_index(build_sparse_index([Passage("p1", "a b"), Passage("p2", "b")]), str(good))
    members = _members(good)
    meta = edit(json.loads(members["meta"].tobytes().decode("utf-8")))
    members["meta"] = _to_planes(np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))
    bad = tmp_path / "bad.idx"
    _write_members(bad, members)
    with pytest.raises(DataError) as err:
        load_sparse_index(str(bad))
    assert str(err.value).startswith(f"{bad}: ")


def _v4_archive(path, texts: list[str]) -> None:
    """A version 4 index: whole CSR arrays, with per-row delta-coded ordinals."""
    terms, offsets, ords, tfs, doc_lengths = oracle_sparse_postings(texts)
    gaps = np.diff(ords, prepend=0)
    gaps[offsets[:-1]] = ords[offsets[:-1]]
    meta = {"format": "icr-sparse-index", "version": 4, "params": {"k1": 0.9, "b": 0.4},
            "ids": [f"p{i}" for i in range(len(texts))], "terms": list(terms)}
    members = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), "offsets": offsets,
               "ord_gaps": gaps, "tfs": tfs, "doc_lengths": doc_lengths, "id_rank": np.arange(len(texts))}
    _write_members(path, {name: _to_planes(values.astype(np.uint8)) for name, values in members.items()})


def test_version_4_artifact_is_rejected(tmp_path):
    path = tmp_path / "v4.idx"
    _v4_archive(path, ["a b", "b"])
    with pytest.raises(DataError) as err:
        load_sparse_index(str(path))
    assert "version 4" in str(err.value) and "re-run build-index to write version 5" in str(err.value)


_WORDS = ["a", "b", "c", "d", "e"]


def test_saved_and_loaded_postings_and_searches_equal_the_built_index(tmp_path_factory, monkeypatch):
    # a five-word vocabulary gives rows longer than a block and many tied
    # scores; the example has a row longer than a default block
    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        st.lists(st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join), min_size=1, max_size=40),
        st.sampled_from([1, 2, 3, sparse_index.BLOCK_POSTINGS]),
        st.lists(st.lists(st.sampled_from(_WORDS + ["zzz"]), min_size=1, max_size=4).map(" ".join), max_size=6),
    )
    @hypothesis.example([f"a {_WORDS[i % 5]}" for i in range(5000)], sparse_index.BLOCK_POSTINGS, ["a", "b c a"])
    def check(texts, block, queries):
        monkeypatch.setattr(sparse_index, "BLOCK_POSTINGS", block)
        built = build_sparse_index([Passage(f"p{i}", t) for i, t in enumerate(texts + texts)])
        path = tmp_path_factory.mktemp("idx") / "sparse.idx"
        save_sparse_index(built, str(path))
        loaded = load_sparse_index(str(path))
        assert loaded.blocks.first_rows == built.blocks.first_rows
        again = path.with_name("again.idx")
        save_sparse_index(loaded, str(again))  # decodes every block
        assert again.read_bytes() == path.read_bytes()
        loaded = load_sparse_index(str(path))
        for row in built.terms.values():
            for got, want in zip(loaded.postings(row), built.postings(row)):
                assert got.dtype == want.dtype == np.int32 and np.array_equal(got, want)
        for query in queries + list(built.terms):
            for k in (1, 3, len(built.ids)):
                # scores compare bit for bit
                assert search_sparse(loaded, query, k).entries == search_sparse(built, query, k).entries

    check()


def test_a_load_decodes_no_block_and_a_search_only_the_blocks_of_its_terms(tmp_path, monkeypatch):
    monkeypatch.setattr(sparse_index, "BLOCK_POSTINGS", 2)
    path = tmp_path / "sparse.idx"
    save_sparse_index(build_sparse_index([Passage(f"p{i}", f"t{i % 5} u{i % 3} v{i}") for i in range(30)]), str(path))
    index = load_sparse_index(str(path))
    assert index.blocks.decoded == {}
    search_sparse(index, "t1 v7 nothing", 5)
    first_rows = index.blocks.first_rows
    blocks = {bisect_right(first_rows, index.terms[term]) - 1 for term in ("t1", "v7")}
    assert len(blocks) == 2 and len(first_rows) > 10
    assert set(index.blocks.decoded) == blocks


def test_four_threads_searching_a_fresh_load_give_the_serial_lists(tmp_path, monkeypatch):
    monkeypatch.setattr(sparse_index, "BLOCK_POSTINGS", 3)
    rng = random.Random(11)
    vocab = [f"t{i}" for i in range(30)]
    built = build_sparse_index([Passage(f"p{i}", " ".join(rng.choices(vocab, k=6))) for i in range(300)])
    path = tmp_path / "sparse.idx"
    save_sparse_index(built, str(path))
    queries = [" ".join(rng.choices(vocab, k=3)) for _ in range(60)]
    serial = [search_sparse(built, q, 10).entries for q in queries]
    loaded = load_sparse_index(str(path))
    start = threading.Barrier(4)

    def search_all(shift: int) -> list:
        start.wait(timeout=10)
        order = list(range(shift, len(queries))) + list(range(shift))
        got = {i: search_sparse(loaded, queries[i], 10).entries for i in order}
        return [got[i] for i in range(len(queries))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(search_all, shift) for shift in (0, 15, 30, 45)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 4
    assert len(loaded.blocks.decoded) == len(loaded.blocks.first_rows) - 1


def _member_data(path, name: str) -> tuple[int, int]:
    """Where a stored member's bytes start in the archive, and their count."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{name}.npy")
    with open(path, "rb") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = int.from_bytes(fh.read(2), "little"), int.from_bytes(fh.read(2), "little")
    return info.header_offset + 30 + name_len + extra_len, info.file_size


def test_a_flipped_byte_in_the_postings_fails_the_load_and_infer_exits_2(tmp_path, capsys):
    ws = build_cli_workspace(tmp_path / "data")
    path = tmp_path / "sparse.idx"
    assert main(["build-index", "--collection", ws["collection"], "--out", str(path)]) == 0
    start, size = _member_data(path, "postings")
    data = bytearray(path.read_bytes())
    data[start + size - 5] ^= 0x01  # inside the last block's stream
    path.write_bytes(bytes(data))
    with pytest.raises(DataError) as err:
        load_sparse_index(str(path))
    assert str(err.value).startswith(f"{path}: ")
    capsys.readouterr()
    assert main(["infer", "--dataset", ws["dataset"], "--sparse-index", str(path), "--mock-script", ws["script"],
                 "--out", str(tmp_path / "run.trec")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")


@pytest.mark.parametrize(
    "raw",
    [None, bytes([0, 0, 0, 1, 1, 1, 9]), bytes([0, 0, 5, 1, 1, 1])],
    ids=["not-zlib", "wrong-length", "ordinal-out-of-range"],
)
def test_a_damaged_block_that_passes_the_crc_is_a_data_error_naming_the_index(tmp_path, raw):
    # p1 "a b", p2 "b": rows a -> [0] and b -> [0, 1], so one block of three
    # postings, one byte per gap and per tf
    good = tmp_path / "good.idx"
    save_sparse_index(build_sparse_index([Passage("p1", "a b"), Passage("p2", "b")]), str(good))
    members = _members(good)
    stream = b"not a zlib stream" if raw is None else zlib.compress(raw)
    members["postings"] = np.frombuffer(stream, dtype=np.uint8)
    members["blocks"] = _to_planes(np.array([0, 2, 0, len(stream)], dtype=np.uint8))
    bad = tmp_path / "bad.idx"
    _write_members(bad, members)
    index = load_sparse_index(str(bad))
    with pytest.raises(DataError) as err:
        search_sparse(index, "b", 2)
    assert str(err.value).startswith(f"{bad}: ")

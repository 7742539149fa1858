from __future__ import annotations

import io
import json
import random
import threading
import time
import zlib

import numpy as np
import pytest

from icr.corpus import Passage
from icr.dense_index import (
    HashEmbeddingProvider,
    RemoteEmbeddingProvider,
    build_dense_index,
    embed,
    load_dense_index,
    save_dense_index,
    search_dense,
)
from icr.errors import DataError, DimensionMismatch, DuplicateId, EmptyCollection, ProviderMismatch, ProviderUnavailable
from icr.genclient import run_in_order

from .oracles import oracle_dense_topk, oracle_hash_embedding


def test_mock_empty_text_is_zero_vector():
    provider = HashEmbeddingProvider(dim=8)
    vec = embed(provider, "")
    assert vec.shape == (8,)
    assert np.all(vec == 0.0)


def test_mock_deterministic():
    provider = HashEmbeddingProvider(dim=8)
    assert np.array_equal(embed(provider, "abc"), embed(provider, "abc"))


def test_mock_bucket_scheme_predictable():
    # the declared scheme: crc32(token) % dim accumulator, L2-normalized
    provider = HashEmbeddingProvider(dim=16)
    vec = embed(provider, "cat cat dog")
    expected = np.zeros(16)
    expected[zlib.crc32(b"cat") % 16] += 2.0
    expected[zlib.crc32(b"dog") % 16] += 1.0
    expected /= np.linalg.norm(expected)
    assert np.allclose(vec, expected)


def test_build_shape_and_determinism():
    passages = [Passage(f"p{i}", f"text number {i}") for i in range(3)]
    provider = HashEmbeddingProvider(dim=8)
    index = build_dense_index(passages, provider)
    assert index.vectors.shape == (3, 8)
    again = build_dense_index(passages, provider)
    assert np.array_equal(index.vectors, again.vectors)


def test_build_empty_collection():
    with pytest.raises(EmptyCollection):
        build_dense_index([], HashEmbeddingProvider(dim=4))


def test_self_similarity_ranks_first():
    passages = [
        Passage("p1", "alpha beta"),
        Passage("p5", "gamma delta epsilon"),
        Passage("p9", "zeta eta"),
    ]
    provider = HashEmbeddingProvider(dim=64)
    index = build_dense_index(passages, provider)
    result = search_dense(index, "gamma delta epsilon", 3, provider)
    assert result.ids()[0] == "p5"


def test_k_at_least_doc_count_returns_all():
    passages = [Passage(f"p{i}", f"tok{i}") for i in range(5)]
    provider = HashEmbeddingProvider(dim=32)
    index = build_dense_index(passages, provider)
    result = search_dense(index, "tok1 tok2", 50, provider)
    assert len(result) == 5
    scores = [s for _, s in result.entries]
    assert scores == sorted(scores, reverse=True)


def test_matches_bruteforce_oracle():
    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(30)]
    provider = HashEmbeddingProvider(dim=24)
    for _ in range(25):
        n = rng.randint(1, 20)
        passages = [
            Passage(f"d{i:02d}", " ".join(rng.choices(vocab, k=rng.randint(0, 9))))
            for i in range(n)
        ]
        index = build_dense_index(passages, provider)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
        k = rng.randint(1, n + 2)
        got = search_dense(index, query, k, provider)
        expected = oracle_dense_topk(
            [p.id for p in passages], index.vectors.tolist(), embed(provider, query).tolist(), k
        )
        assert got.ids() == [pid for pid, _ in expected]
        for (_, gs), (_, es) in zip(got.entries, expected):
            assert gs == pytest.approx(es, abs=1e-9)


def test_provider_mismatch_rejected():
    passages = [Passage("p1", "a")]
    index = build_dense_index(passages, HashEmbeddingProvider(dim=8))
    with pytest.raises(ProviderMismatch):
        search_dense(index, "a", 1, HashEmbeddingProvider(dim=16))


def test_save_load_roundtrip(tmp_path):
    passages = [Passage("p1", "alpha"), Passage("p2", "beta")]
    provider = HashEmbeddingProvider(dim=8)
    index = build_dense_index(passages, provider)
    save_dense_index(index, str(tmp_path / "dense"))
    loaded = load_dense_index(str(tmp_path / "dense"))
    assert loaded.ids == index.ids
    assert loaded.provider_name == index.provider_name
    assert np.array_equal(loaded.vectors, index.vectors)


class _FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def raise_for_status(self):
        pass

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def test_remote_provider_dimension_mismatch():
    session = _FakeSession([_FakeResponse(payload={"vectors": [[1.0] * 7]})])
    provider = RemoteEmbeddingProvider("http://x/embed", dim=8, session=session, sleep=lambda s: None)
    with pytest.raises(DimensionMismatch):
        provider.embed_batch(["hello"])


def test_remote_provider_retries_then_succeeds():
    session = _FakeSession(
        [
            ConnectionError("down"),
            _FakeResponse(status_code=500),
            _FakeResponse(payload={"vectors": [[0.5] * 4]}),
        ]
    )
    provider = RemoteEmbeddingProvider("http://x/embed", dim=4, session=session, sleep=lambda s: None)
    out = provider.embed_batch(["hello"])
    assert out.shape == (1, 4)
    assert session.calls == 3


def test_remote_provider_exhausts_budget():
    session = _FakeSession([ConnectionError("down")] * 4)
    provider = RemoteEmbeddingProvider(
        "http://x/embed", dim=4, max_retries=3, session=session, sleep=lambda s: None
    )
    with pytest.raises(ProviderUnavailable):
        provider.embed_batch(["hello"])
    assert session.calls == 4


def test_remote_provider_fails_at_once_on_client_error():
    sleeps = []
    session = _FakeSession([_FakeResponse(status_code=404)] * 4)
    provider = RemoteEmbeddingProvider("http://x/embed", dim=4, session=session, sleep=sleeps.append)
    with pytest.raises(ProviderUnavailable, match="404"):
        provider.embed_batch(["hello"])
    assert session.calls == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "body",
    [[[0.5] * 4], {"vectors": [["a", "b", "c", "d"]]}],
    ids=["list-body", "non-numeric-vector"],
)
def test_remote_provider_unreadable_body_is_retried_then_unavailable(body):
    session = _FakeSession([_FakeResponse(payload=body)] * 4)
    provider = RemoteEmbeddingProvider("http://x/embed", dim=4, session=session, sleep=lambda s: None)
    with pytest.raises(ProviderUnavailable, match="embedding endpoint"):
        provider.embed_batch(["hello"])
    assert session.calls == 4


def test_remote_provider_stops_with_its_batch():
    # t0 is answered at once; t1 and t2 hang until released, then get a 503
    release = threading.Event()
    posts = []

    class HangingSession:
        def post(self, url, json=None, headers=None, timeout=None):
            text = json["texts"][0]
            posts.append(text)
            if text == "t0":
                return _FakeResponse(payload={"vectors": [[0.5] * 4]})
            release.wait(5)
            return _FakeResponse(status_code=503)

    class Client:
        max_in_flight = 2

    provider = RemoteEmbeddingProvider("http://x/embed", dim=4, session=HangingSession(), sleep=lambda s: None)
    results = run_in_order(Client(), lambda c, t: provider.embed_batch([t]), ["t0", "t1", "t2", "t3"])
    assert next(results).shape == (1, 4)
    deadline = time.monotonic() + 5
    while len(posts) < 3 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert sorted(posts) == ["t0", "t1", "t2"]
    results.close()
    release.set()
    while any(t.name.startswith("icr-gen") for t in threading.enumerate()) and time.monotonic() < deadline:
        time.sleep(0.001)
    # the two hanging requests were not retried, and t3 never started
    assert sorted(posts) == ["t0", "t1", "t2"]


def test_build_outage_reports_progress():
    session = _FakeSession([ConnectionError("down")] * 4)
    provider = RemoteEmbeddingProvider(
        "http://x/embed", dim=4, max_retries=3, session=session, sleep=lambda s: None
    )
    passages = [Passage(f"p{i}", "text") for i in range(3)]
    with pytest.raises(ProviderUnavailable) as err:
        build_dense_index(passages, provider, batch_size=2)
    assert "0 passages" in str(err.value)


def test_top100_matches_oracle_with_ties():
    # duplicated texts embed to equal vectors, so equal scores straddle
    # the depth-100 cut; ids are out of collection order
    rng = random.Random(41)
    vocab = [f"w{i}" for i in range(8)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 4))) for _ in range(120)]
    passages = [Passage(f"d{rng.randint(0, 10**6):07d}-{i}", t) for i, t in enumerate(texts * 2)]
    rng.shuffle(passages)
    provider = HashEmbeddingProvider(dim=16)
    index = build_dense_index(passages, provider)
    for _ in range(10):
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        got = search_dense(index, query, 100, provider)
        want = oracle_dense_topk(
            [p.id for p in passages], index.vectors.tolist(), embed(provider, query).tolist(), 100
        )
        assert len(got) == 100
        assert got.ids() == [pid for pid, _ in want]
        for (_, gs), (_, es) in zip(got.entries, want):
            assert gs == pytest.approx(es, abs=1e-9)


@pytest.mark.parametrize("n_texts", [0, 1, 65])
def test_hash_embedding_equals_per_token_oracle(n_texts):
    # few words and small dims: buckets collide and tokens repeat
    rng = random.Random(n_texts)
    vocab = ["", "a", "b", "c", "Dé", "x_y"]
    for dim in (1, 3, 16):
        provider = HashEmbeddingProvider(dim=dim)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 30))) for _ in range(n_texts)]
        if texts:
            texts[0] = "a a a a a"
        got = provider.embed_batch(texts)
        want = oracle_hash_embedding(texts, dim)
        assert got.dtype == want.dtype and got.shape == (n_texts, dim) and np.array_equal(got, want)


def test_build_equals_per_token_oracle_across_batches():
    rng = random.Random(17)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 12))) for _ in range(150)]
    index = build_dense_index([Passage(f"p{i}", t) for i, t in enumerate(texts)], HashEmbeddingProvider(dim=8))
    assert np.array_equal(index.vectors, oracle_hash_embedding(texts, 8))
    assert index.ids == [f"p{i}" for i in range(150)]
    assert all(f"p{i}" in index for i in range(150)) and "p150" not in index and "p" not in index


class _CountingProvider(HashEmbeddingProvider):
    def __init__(self):
        super().__init__(dim=4)
        self.calls = 0

    def embed_batch(self, texts, role=None):
        self.calls += 1
        return super().embed_batch(texts, role)


def test_build_checks_ids_before_embedding(tmp_path):
    provider = _CountingProvider()
    passages = [Passage(f"p{i}", "text") for i in range(100)] + [Passage("p0", "again")]
    with pytest.raises(DuplicateId):
        build_dense_index(passages, provider, batch_size=10)
    with pytest.raises(DuplicateId):
        build_dense_index(passages, provider, batch_size=10, path=str(tmp_path / "dense"))
    with pytest.raises(EmptyCollection):
        build_dense_index(iter([]), provider)
    with pytest.raises(EmptyCollection):
        build_dense_index([], provider, path=str(tmp_path / "dense"))
    assert provider.calls == 0 and list(tmp_path.iterdir()) == []


def test_a_streamed_build_refuses_a_repeated_id_before_embedding_its_batch(tmp_path):
    # an iterator is read once, so the batches before the repeat are
    # embedded; the repeat's own batch is not, and nothing is saved
    provider = _CountingProvider()
    passages = [Passage(f"p{i}", "text") for i in range(100)] + [Passage("p0", "again")]
    with pytest.raises(DuplicateId):
        build_dense_index(iter(passages), provider, batch_size=10)
    assert provider.calls == 10
    with pytest.raises(DuplicateId):
        build_dense_index(iter(passages), provider, batch_size=10, path=str(tmp_path / "dense"))
    assert provider.calls == 20 and list(tmp_path.iterdir()) == []
    with pytest.raises(EmptyCollection):
        build_dense_index(iter([]), provider, path=str(tmp_path / "dense"))
    assert provider.calls == 20 and list(tmp_path.iterdir()) == []


def test_build_outage_mid_build_reports_passages_done():
    class Failing(HashEmbeddingProvider):
        def embed_batch(self, texts, role=None):
            if texts[0] == "t4":
                raise ProviderUnavailable("down")
            return super().embed_batch(texts, role)

    passages = [Passage(f"p{i}", f"t{i}") for i in range(6)]
    with pytest.raises(ProviderUnavailable, match=r"embedded 4 passages before failure"):
        build_dense_index(passages, Failing(dim=4), batch_size=2)


def _saved(tmp_path, ids=("p2", "p10", "p1")):
    path = tmp_path / "dense"
    index = build_dense_index([Passage(pid, f"alpha {pid}") for pid in ids], HashEmbeddingProvider(dim=8))
    save_dense_index(index, str(path))
    return index, path


def test_load_maps_the_vectors_and_takes_the_stored_id_ranks(tmp_path, monkeypatch):
    import icr.dense_index as dense_index

    index, path = _saved(tmp_path)
    assert sorted(p.name for p in path.iterdir()) == ["id_rank.npy", "meta.json", "vectors.npy"]
    monkeypatch.setattr(dense_index, "id_ranks", lambda ids: pytest.fail("load sorted the ids"))
    # the id order check inverts the ranks, and the index keeps that inverse
    monkeypatch.setattr(dense_index, "by_rank", lambda ranks: pytest.fail("load inverted the ranks again"))
    loaded = load_dense_index(str(path))
    assert loaded.by_rank.tolist() == index.by_rank.tolist() == [2, 1, 0]
    assert isinstance(loaded.vectors, np.memmap) and not loaded.vectors.flags.writeable
    assert loaded.vectors.dtype == np.float64
    assert loaded.id_rank.dtype == np.int64 and loaded.id_rank.tolist() == index.id_rank.tolist() == [2, 1, 0]
    provider = HashEmbeddingProvider(dim=8)
    assert search_dense(loaded, "alpha", 3, provider).entries == search_dense(index, "alpha", 3, provider).entries


def test_saving_over_a_loaded_index_leaves_its_mapped_vectors_readable(tmp_path):
    index, path = _saved(tmp_path)
    loaded = load_dense_index(str(path))
    save_dense_index(build_dense_index([Passage("x", "other")], HashEmbeddingProvider(dim=8)), str(path))
    assert np.array_equal(loaded.vectors, index.vectors)
    assert load_dense_index(str(path)).ids == ["x"]


def test_saving_into_a_directory_holding_other_entries_is_a_data_error(tmp_path):
    index, path = _saved(tmp_path)
    (path / "notes.txt").write_text("mine", encoding="utf-8")
    (path / "z").mkdir()
    before = {p.name: p.read_bytes() if p.is_file() else None for p in path.iterdir()}
    other = build_dense_index([Passage("x", "other")], HashEmbeddingProvider(dim=8))
    with pytest.raises(DataError, match=r"notes\.txt"):
        save_dense_index(other, str(path))
    assert {p.name: p.read_bytes() if p.is_file() else None for p in path.iterdir()} == before
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "notes.txt").write_text("mine", encoding="utf-8")
    with pytest.raises(DataError, match=r"notes\.txt"):
        save_dense_index(index, str(fresh))
    assert [p.name for p in fresh.iterdir()] == ["notes.txt"]


def test_version_1_dense_index_is_rejected(tmp_path):
    _, path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    meta["version"] = 1
    (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    (path / "id_rank.npy").unlink()
    with pytest.raises(DataError) as err:
        load_dense_index(str(path))
    assert "version 1" in str(err.value) and "re-run embed-index to write version 2" in str(err.value)


@pytest.mark.parametrize(
    "ranks",
    [np.array([0, 0, 2]), np.array([2, 1]), np.array([1, 2, 3]), np.array([2.0, 1.0, 0.0]), np.array([[2, 1, 0]])],
    ids=["repeated", "too-few", "out-of-range", "float", "two-dims"],
)
def test_stored_id_ranks_that_are_not_a_permutation_are_data_errors(tmp_path, ranks):
    _, path = _saved(tmp_path)
    np.save(path / "id_rank.npy", ranks)
    with pytest.raises(DataError, match="permutation"):
        load_dense_index(str(path))


def test_vectors_of_the_wrong_shape_are_data_errors(tmp_path):
    _, path = _saved(tmp_path)
    np.save(path / "vectors.npy", np.zeros((2, 8)))
    with pytest.raises(DataError, match="3 x 8 float64"):
        load_dense_index(str(path))
    (path / "vectors.npy").write_bytes(b"not an npy file")
    with pytest.raises(DataError, match="not a dense index"):
        load_dense_index(str(path))


def test_meta_json_bytes_are_pinned(tmp_path):
    """meta.json is compact, key-sorted UTF-8 with non-ASCII ids unescaped."""
    passages = [Passage("z9", "zeta"), Passage("é2", "accent"), Passage("日本", "kanji"), Passage('q"1', "quote")]
    save_dense_index(build_dense_index(passages, HashEmbeddingProvider(dim=8)), str(tmp_path / "dense.idx"))
    expected = (
        '{"dim":8,"format":"icr-dense-index","ids":["z9","é2","日本","q\\"1"],'
        '"provider":"hash-8","version":2}'
    )
    assert (tmp_path / "dense.idx" / "meta.json").read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: "{not json",
        lambda meta: {k: v for k, v in meta.items() if k != "ids"},
        lambda meta: dict(meta, ids=5),
        lambda meta: dict(meta, dim="x"),
        lambda meta: dict(meta, provider=None),
        lambda meta: [meta],
    ],
    ids=["invalid-json", "no-ids", "ids-not-a-list", "dim-not-an-integer", "provider-not-a-string", "not-an-object"],
)
def test_a_malformed_meta_json_is_a_data_error_naming_the_index(tmp_path, edit):
    _, path = _saved(tmp_path)
    meta = edit(json.loads((path / "meta.json").read_text(encoding="utf-8")))
    (path / "meta.json").write_text(meta if isinstance(meta, str) else json.dumps(meta), encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_dense_index(str(path))
    assert str(err.value).startswith(f"{path}: ")


def test_a_batch_with_the_wrong_row_count_is_a_provider_error_naming_both_counts():
    class DropsLastRow(HashEmbeddingProvider):
        def embed_batch(self, texts, role=None):
            return super().embed_batch(texts, role)[:-1]

    passages = [Passage(f"p{i}", f"t{i}") for i in range(8)]
    with pytest.raises(ProviderUnavailable, match=r"provider returned 7 vectors for 8 texts"):
        build_dense_index(passages, DropsLastRow(dim=8))


_WORDS = ["", "alpha", "beta", "Dé", "日本", "straße", "x_y"]


def test_streamed_vectors_equal_np_save_of_the_in_memory_build(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # collection sizes sit on and around the batch edges; empty and
    # non-ASCII texts give zero rows and multi-byte tokens
    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(
        st.sampled_from([1, 2, 3, 4, 5, 63, 64, 65, 128, 129]),
        st.sampled_from([1, 2, 3, 64]),
        st.randoms(use_true_random=False),
    )
    def check(n, batch_size, rng):
        passages = [Passage(f"p{i}", " ".join(rng.choices(_WORDS, k=rng.randint(0, 6)))) for i in range(n)]
        provider = HashEmbeddingProvider(dim=8)
        built = build_dense_index(passages, provider, batch_size=batch_size)
        saved, streamed = tmp_path_factory.mktemp("saved") / "dense", tmp_path_factory.mktemp("streamed") / "dense"
        save_dense_index(built, str(saved))
        index = build_dense_index(iter(passages), provider, batch_size=batch_size, path=str(streamed))
        buf = io.BytesIO()
        np.save(buf, built.vectors)
        assert (streamed / "vectors.npy").read_bytes() == buf.getvalue()
        for name in ("vectors.npy", "meta.json", "id_rank.npy"):
            assert (streamed / name).read_bytes() == (saved / name).read_bytes(), name
        assert isinstance(index.vectors, np.memmap) and np.array_equal(index.vectors, built.vectors)
        assert index.ids == built.ids and index.id_rank.tolist() == built.id_rank.tolist()

    check()


def test_an_outage_mid_stream_leaves_no_index_and_keeps_its_message(tmp_path):
    class Failing(HashEmbeddingProvider):
        def embed_batch(self, texts, role=None):
            if texts[0] == "t4":
                raise ProviderUnavailable("down")
            return super().embed_batch(texts, role)

    passages = [Passage(f"p{i}", f"t{i}") for i in range(6)]
    fresh = tmp_path / "fresh"
    with pytest.raises(ProviderUnavailable, match=r"^down \(embedded 4 passages before failure\)$"):
        build_dense_index(passages, Failing(dim=4), batch_size=2, path=str(fresh))
    assert list(tmp_path.iterdir()) == []
    # an index saved before stays as it was
    _, path = _saved(tmp_path)
    before = {p.name: p.read_bytes() for p in path.iterdir()}
    with pytest.raises(ProviderUnavailable, match=r"embedded 4 passages before failure"):
        build_dense_index(passages, Failing(dim=8), batch_size=2, path=str(path))
    assert {p.name: p.read_bytes() for p in path.iterdir()} == before


@pytest.mark.parametrize("ids", [["a", "a"], [1, "1"], ["a", None]], ids=["repeated", "int-and-str", "null"])
def test_a_meta_json_whose_ids_repeat_or_are_not_strings_is_a_data_error_naming_the_index(tmp_path, capsys, ids):
    from icr.cli import main

    from .conftest import build_cli_workspace

    path = tmp_path / "dense"
    save_dense_index(build_dense_index([Passage("a", "alpha"), Passage("b", "beta")], HashEmbeddingProvider(dim=8)),
                     str(path))
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    (path / "meta.json").write_text(json.dumps(dict(meta, ids=ids)), encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_dense_index(str(path))
    assert str(err.value).startswith(f"{path}: ")
    ws = build_cli_workspace(tmp_path / "data")
    capsys.readouterr()
    argv = ["infer", "--dataset", ws["dataset"], "--dense-index", str(path), "--retriever", "dense",
            "--mock-script", ws["script"], "--out", str(tmp_path / "run.trec"), "--config", ws["config"]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")

from __future__ import annotations

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
from icr.errors import DimensionMismatch, EmptyCollection, ProviderMismatch, ProviderUnavailable
from icr.genclient import run_in_order

from .oracles import oracle_dense_topk


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
    import requests

    session = _FakeSession(
        [
            requests.ConnectionError("down"),
            _FakeResponse(status_code=500),
            _FakeResponse(payload={"vectors": [[0.5] * 4]}),
        ]
    )
    provider = RemoteEmbeddingProvider("http://x/embed", dim=4, session=session, sleep=lambda s: None)
    out = provider.embed_batch(["hello"])
    assert out.shape == (1, 4)
    assert session.calls == 3


def test_remote_provider_exhausts_budget():
    import requests

    session = _FakeSession([requests.ConnectionError("down")] * 4)
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
    import requests

    session = _FakeSession([requests.ConnectionError("down")] * 4)
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

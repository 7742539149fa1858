"""Embedding providers and exact inner-product top-K search.

The index stores one vector per passage and search is a full exact scan,
which is correct and fast at desk scale (no ANN structures). Two providers
are included: a deterministic offline hash provider for tests and desk
experiments, and a remote HTTP provider speaking a small batch-embedding
contract (``POST {"texts": [...]} -> {"vectors": [[...], ...]}``).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol

import numpy as np

from .corpus import Passage
from .errors import (
    DataError,
    DimensionMismatch,
    DuplicateId,
    EmptyCollection,
    ProviderMismatch,
    ProviderUnavailable,
)
from .genclient import _Endpoint
from .ranking import RankedList, id_ranks, top_k
from .sparse_index import tokenize

if TYPE_CHECKING:
    import requests

DENSE_FORMAT = "icr-dense-index"
DENSE_VERSION = 1


class EmbeddingProvider(Protocol):
    name: str
    dim: int

    def embed_batch(self, texts: list[str], role: str | None = None) -> np.ndarray: ...


class HashEmbeddingProvider:
    """Deterministic offline provider.

    Each token of ``tokenize(text)`` is hashed (CRC32) into a dim-sized
    accumulator which is then L2-normalized; a zero vector stays zero. The
    scheme is fixed so tests can predict bucket collisions.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.name = f"hash-{dim}"

    def _vector(self, text: str) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.float64)
        for token in tokenize(text):
            v[zlib.crc32(token.encode("utf-8")) % self.dim] += 1.0
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v /= norm
        return v

    def embed_batch(self, texts: list[str], role: str | None = None) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack([self._vector(t) for t in texts])


class RemoteEmbeddingProvider(_Endpoint):
    """HTTP provider with the generator client's retry policy (see
    ``genclient._Endpoint``) and an in-flight cap.

    Requests are idempotent, so failed calls are retried up to
    ``max_retries`` times before raising ProviderUnavailable. An optional
    ``role`` hint ("query" or "passage") is forwarded for providers that
    encode the two sides differently.
    """

    _label = "embedding endpoint"

    def __init__(
        self,
        url: str,
        dim: int,
        name: str = "remote",
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        timeout: float = 30.0,
        max_in_flight: int = 4,
        session: requests.Session | None = None,
        sleep=time.sleep,
    ):
        super().__init__(url, api_key, max_retries, backoff_seconds, timeout, max_in_flight, session, sleep)
        self.dim = dim
        self.name = name

    def embed_batch(self, texts: list[str], role: str | None = None) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        payload: dict = {"texts": list(texts)}
        if role is not None:
            payload["role"] = role
        vectors = self._post(payload, lambda body: [np.asarray(v, dtype=np.float64) for v in body["vectors"]])
        if len(vectors) != len(texts):
            raise ProviderUnavailable(
                f"provider returned {len(vectors)} vectors for {len(texts)} texts"
            )
        for vec in vectors:
            if vec.shape != (self.dim,):
                raise DimensionMismatch(self.dim, vec.size)
        return np.stack(vectors)


def embed(provider: EmbeddingProvider, text: str, role: str | None = None) -> np.ndarray:
    """Embed one text, enforcing the provider's declared dimension."""
    out = provider.embed_batch([text], role=role)
    vec = np.asarray(out[0], dtype=np.float64)
    if vec.shape != (provider.dim,):
        raise DimensionMismatch(provider.dim, int(vec.shape[0]))
    return vec


@dataclass
class DenseIndex:
    vectors: np.ndarray  # doc_count x dim
    ids: list[str]
    ordinals: dict[str, int]
    provider_name: str
    dim: int
    id_rank: np.ndarray = field(init=False)  # ordinal -> rank of its id

    def __post_init__(self) -> None:
        self.id_rank = id_ranks(self.ids)

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self.ordinals


def build_dense_index(
    collection: Iterable[Passage],
    provider: EmbeddingProvider,
    batch_size: int = 64,
) -> DenseIndex:
    """Embed every passage in collection order.

    A provider outage mid-build raises ProviderUnavailable mentioning how
    many passages were embedded before the failure.
    """
    ids: list[str] = []
    ordinals: dict[str, int] = {}
    chunks: list[np.ndarray] = []
    batch: list[str] = []

    def flush() -> None:
        if not batch:
            return
        try:
            chunk = provider.embed_batch(batch, role="passage")
        except ProviderUnavailable as e:
            done = sum(c.shape[0] for c in chunks)
            raise ProviderUnavailable(f"{e} (embedded {done} passages before failure)") from e
        if chunk.shape != (len(batch), provider.dim):
            raise DimensionMismatch(provider.dim, int(chunk.shape[-1]))
        chunks.append(np.asarray(chunk, dtype=np.float64))
        batch.clear()

    for passage in collection:
        if passage.id in ordinals:
            raise DuplicateId(passage.id)
        ordinals[passage.id] = len(ids)
        ids.append(passage.id)
        batch.append(passage.text)
        if len(batch) >= batch_size:
            flush()
    flush()
    if not ids:
        raise EmptyCollection("cannot build an index over an empty collection")
    vectors = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, provider.dim))
    return DenseIndex(vectors, ids, ordinals, provider.name, provider.dim)


def search_dense(
    index: DenseIndex,
    query: str,
    k: int,
    provider: EmbeddingProvider,
    tag: str | None = None,
) -> RankedList:
    """Exact inner-product top-k over all passages."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if provider.name != index.provider_name or provider.dim != index.dim:
        raise ProviderMismatch(
            f"index built with {index.provider_name!r} (dim {index.dim}), "
            f"searched with {provider.name!r} (dim {provider.dim})"
        )
    qv = embed(provider, query, role="query")
    return top_k(tag if tag is not None else query, index.vectors @ qv, index.ids, index.id_rank, k)


def save_dense_index(index: DenseIndex, path: str) -> None:
    """Persist as a directory: meta.json (version header) + vectors.npy."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "format": DENSE_FORMAT,
        "version": DENSE_VERSION,
        "provider": index.provider_name,
        "dim": index.dim,
        "ids": index.ids,
    }
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    with open(os.path.join(path, "vectors.npy"), "wb") as fh:
        np.save(fh, index.vectors)


def load_dense_index(path: str) -> DenseIndex:
    with open(os.path.join(path, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("format") != DENSE_FORMAT:
        raise DataError(f"{path}: not a dense index artifact")
    if meta.get("version") != DENSE_VERSION:
        raise DataError(f"{path}: unsupported index version {meta.get('version')}")
    vectors = np.load(os.path.join(path, "vectors.npy"))
    ids = [str(i) for i in meta["ids"]]
    return DenseIndex(vectors, ids, {pid: i for i, pid in enumerate(ids)}, meta["provider"], int(meta["dim"]))

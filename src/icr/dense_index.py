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
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Protocol

import numpy as np

from .corpus import Passage, replacing
from .errors import (
    DataError,
    DimensionMismatch,
    DuplicateId,
    EmptyCollection,
    ProviderMismatch,
    ProviderUnavailable,
)
from .genclient import _Endpoint
from .ranking import RankedList, id_ranks, stored_id_ranks, top_k
from .sparse_index import tokenize

if TYPE_CHECKING:
    from .transport import Transport

DENSE_FORMAT = "icr-dense-index"
DENSE_VERSION = 2


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

    def embed_batch(self, texts: list[str], role: str | None = None) -> np.ndarray:
        token_lists = [tokenize(text) for text in texts]
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(texts))
        # crc32(token) % dim for every token of every text, then plus row * dim
        buckets = np.fromiter(
            map(zlib.crc32, map(str.encode, chain.from_iterable(token_lists))), dtype=np.int64, count=int(lengths.sum())
        )
        buckets %= self.dim
        buckets += np.repeat(np.arange(0, len(texts) * self.dim, self.dim, dtype=np.int64), lengths)
        counts = np.bincount(buckets, minlength=len(texts) * self.dim)
        vectors = counts.reshape(len(texts), self.dim).astype(np.float64)
        # squares of small integer counts sum exactly in any order, so these
        # norms equal np.linalg.norm's bit for bit
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
        norms[norms == 0.0] = 1.0  # a zero vector stays zero
        vectors /= norms[:, None]
        return vectors


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
        session: Transport | None = None,
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
    vectors: np.ndarray  # doc_count x dim; read-only and file-backed when loaded
    ids: list[str]
    ordinals: dict[str, int]
    provider_name: str
    dim: int
    id_rank: np.ndarray | None = None  # ordinal -> rank of its id; None computes it

    def __post_init__(self) -> None:
        if self.id_rank is None:
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
    passages = list(collection)
    ordinals: dict[str, int] = {}
    for passage in passages:
        if passage.id in ordinals:
            raise DuplicateId(passage.id)
        ordinals[passage.id] = len(ordinals)
    if not passages:
        raise EmptyCollection("cannot build an index over an empty collection")
    vectors = np.empty((len(passages), provider.dim), dtype=np.float64)
    for lo in range(0, len(passages), batch_size):
        batch = [passage.text for passage in passages[lo : lo + batch_size]]
        try:
            chunk = provider.embed_batch(batch, role="passage")
        except ProviderUnavailable as e:
            raise ProviderUnavailable(f"{e} (embedded {lo} passages before failure)") from e
        if chunk.shape != (len(batch), provider.dim):
            raise DimensionMismatch(provider.dim, int(chunk.shape[-1]))
        vectors[lo : lo + len(batch)] = chunk
    return DenseIndex(vectors, list(ordinals), ordinals, provider.name, provider.dim)


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
    """Persist as a directory: meta.json (version header), vectors.npy and
    id_rank.npy (the id ranks, narrowed, so a load does not sort the ids).

    A directory holding any other entry is refused, before anything is
    written, since a manifest's digest of the index covers the whole
    directory.
    """
    os.makedirs(path, exist_ok=True)
    foreign = sorted(set(os.listdir(path)) - {"meta.json", "id_rank.npy", "vectors.npy"})
    if foreign:
        raise DataError(f"{path}: {foreign[0]!r} is not a dense index file; remove it or save elsewhere")
    meta = {
        "format": DENSE_FORMAT,
        "version": DENSE_VERSION,
        "provider": index.provider_name,
        "dim": index.dim,
        "ids": index.ids,
    }
    with replacing(os.path.join(path, "meta.json")) as temp, open(temp, "w", encoding="utf-8") as fh:
        # json.dump would stream through the pure-Python encoder
        fh.write(json.dumps(meta, ensure_ascii=False, sort_keys=True, separators=(",", ":")))
    with replacing(os.path.join(path, "id_rank.npy")) as temp, open(temp, "wb") as fh:
        np.save(fh, index.id_rank.astype(np.min_scalar_type(index.doc_count)))
    # a process that maps the old vectors keeps reading them, not a cut file
    with replacing(os.path.join(path, "vectors.npy")) as temp, open(temp, "wb") as fh:
        np.save(fh, index.vectors)


def load_dense_index(path: str) -> DenseIndex:
    """Load an index written by ``save_dense_index`` (version 2 only); the
    vectors are memory-mapped, not read."""
    with open(os.path.join(path, "meta.json"), encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as e:
            raise DataError(f"{path}: not a dense index artifact ({e})") from e
    if not isinstance(meta, dict) or meta.get("format") != DENSE_FORMAT:
        raise DataError(f"{path}: not a dense index artifact")
    if meta.get("version") != DENSE_VERSION:
        raise DataError(
            f"{path}: unsupported dense index version {meta.get('version')}; "
            f"re-run embed-index to write version {DENSE_VERSION}"
        )
    ids, dim, provider = meta.get("ids"), meta.get("dim"), meta.get("provider")
    if not isinstance(ids, list) or type(dim) is not int or not isinstance(provider, str):
        raise DataError(f"{path}: dense index meta.json needs a list of ids, an integer dim and a provider name")
    ids = [str(i) for i in ids]
    try:
        vectors = np.load(os.path.join(path, "vectors.npy"), mmap_mode="r")
        id_rank = np.load(os.path.join(path, "id_rank.npy"))
    except ValueError as e:
        raise DataError(f"{path}: not a dense index artifact ({e})") from e
    if vectors.shape != (len(ids), dim) or vectors.dtype != np.float64:
        raise DataError(f"{path}: dense index vectors are not {len(ids)} x {dim} float64")
    return DenseIndex(
        vectors,
        ids,
        {pid: i for i, pid in enumerate(ids)},
        provider,
        dim,
        stored_id_ranks(path, id_rank, len(ids)),
    )

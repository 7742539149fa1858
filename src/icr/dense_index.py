"""Embedding providers and exact inner-product top-K search.

The index stores one vector per passage and search is a full exact scan,
which is correct and fast at desk scale (no ANN structures). Two providers
are included: a deterministic offline hash provider for tests and desk
experiments, and a remote HTTP provider speaking a small batch-embedding
contract (``POST {"texts": [...]} -> {"vectors": [[...], ...]}``).
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Protocol, Sequence

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
from .ranking import RankedList, by_rank, has_id, id_ranks, stored_id_ranks, top_k
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
    provider_name: str
    dim: int
    id_rank: np.ndarray | None = None  # ordinal -> rank of its id; None computes it
    by_rank: np.ndarray | None = field(default=None, repr=False)  # the ordinals in id order; None computes it

    def __post_init__(self) -> None:
        if self.id_rank is None:
            self.id_rank = id_ranks(self.ids)
        if self.by_rank is None:
            self.by_rank = by_rank(self.id_rank)

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    def __contains__(self, passage_id: str) -> bool:
        return has_id(self.ids, self.by_rank, passage_id)


def build_dense_index(
    collection: Iterable[Passage],
    provider: EmbeddingProvider,
    batch_size: int = 64,
    path: str | None = None,
) -> DenseIndex:
    """Embed every passage in collection order, ``batch_size`` per call.

    Without ``path`` the vectors are kept in memory. With it, the index is
    saved there as ``save_dense_index`` saves it, each batch written as it
    is embedded, so neither the collection nor the vectors are held; the
    returned index maps the saved vectors.

    The ids of a sequence are all checked before the first batch is
    embedded. Those of any other iterable are checked a batch at a time, so
    a caller that must not embed before a late repeat is found checks the
    stream first (``cmd_embed_index`` reads the collection file twice).

    A provider outage mid-build raises ProviderUnavailable mentioning how
    many passages were embedded before the failure, and leaves nothing at
    ``path``.
    """
    ids: dict[str, None] = {}  # an insertion-ordered set
    checked = isinstance(collection, Sequence)
    if checked:
        _add_ids(ids, collection)
        if not ids:
            raise EmptyCollection("cannot build an index over an empty collection")
    passages, done = iter(collection), 0
    with nullcontext(io.BytesIO()) if path is None else _vectors_file(path) as out:
        header = _write_header(out, 0, provider.dim)
        while batch := list(islice(passages, batch_size)):
            if not checked:
                _add_ids(ids, batch)
            try:
                chunk = provider.embed_batch([passage.text for passage in batch], role="passage")
            except ProviderUnavailable as e:
                raise ProviderUnavailable(f"{e} (embedded {done} passages before failure)") from e
            if len(chunk) != len(batch):
                raise ProviderUnavailable(f"provider returned {len(chunk)} vectors for {len(batch)} texts")
            if chunk.shape != (len(batch), provider.dim):
                raise DimensionMismatch(provider.dim, int(chunk.shape[-1]))
            out.write(np.ascontiguousarray(chunk, dtype="<f8").data)
            done += len(batch)
        if not ids:
            raise EmptyCollection("cannot build an index over an empty collection")
        out.seek(0)
        # numpy pads the header so that any row count fits in place of the 0
        if _write_header(out, len(ids), provider.dim) != header:
            raise RuntimeError("numpy's .npy header changed length with the row count")
    if path is None:
        vectors = np.frombuffer(out.getbuffer(), dtype=np.float64, offset=header).reshape(len(ids), provider.dim)
    else:
        vectors = np.load(os.path.join(path, "vectors.npy"), mmap_mode="r")
    index = DenseIndex(vectors, list(ids), provider.name, provider.dim)
    if path is not None:
        _write_tables(index, path)
    return index


def _add_ids(ids: dict[str, None], passages: Iterable[Passage]) -> None:
    """Add each passage's id to ``ids``; DuplicateId on a repeat."""
    for passage in passages:
        if passage.id in ids:
            raise DuplicateId(passage.id)
        ids[passage.id] = None


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


def _write_header(fh: BinaryIO, rows: int, dim: int) -> int:
    """Write ``np.save``'s header for a ``rows`` x ``dim`` float64 array;
    returns its length."""
    start = fh.tell()
    np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": (rows, dim)})
    return fh.tell() - start


@contextmanager
def _vectors_file(path: str) -> Iterator[BinaryIO]:
    """Yield the open temporary that becomes ``path``'s vectors.npy when
    the block succeeds. A directory holding any entry other than an index
    file is refused, before anything is written, since a manifest's digest
    of the index covers the whole directory; one made here is removed
    again if the block fails."""
    made = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    try:
        foreign = sorted(set(os.listdir(path)) - {"meta.json", "id_rank.npy", "vectors.npy"})
        if foreign:
            raise DataError(f"{path}: {foreign[0]!r} is not a dense index file; remove it or save elsewhere")
        # a process that maps the old vectors keeps reading them, not a cut file
        with replacing(os.path.join(path, "vectors.npy")) as temp, open(temp, "wb") as fh:
            yield fh
    except BaseException:
        if made:
            os.rmdir(path)
        raise


def _write_tables(index: DenseIndex, path: str) -> None:
    """Write ``path``'s meta.json and id_rank.npy."""
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


def save_dense_index(index: DenseIndex, path: str) -> None:
    """Persist as a directory: vectors.npy, id_rank.npy (the id ranks,
    narrowed, so a load does not sort the ids) and meta.json (version
    header). A directory holding any other entry is refused."""
    with _vectors_file(path) as fh:
        np.save(fh, index.vectors)
    _write_tables(index, path)


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
    try:
        vectors = np.load(os.path.join(path, "vectors.npy"), mmap_mode="r")
        id_rank = np.load(os.path.join(path, "id_rank.npy"))
    except ValueError as e:
        raise DataError(f"{path}: not a dense index artifact ({e})") from e
    if vectors.shape != (len(ids), dim) or vectors.dtype != np.float64:
        raise DataError(f"{path}: dense index vectors are not {len(ids)} x {dim} float64")
    return DenseIndex(vectors, ids, provider, dim, *stored_id_ranks(path, id_rank, ids))

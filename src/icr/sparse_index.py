"""Embedded BM25 inverted index with exact top-K search.

Scoring follows the classic formulation with smoothed idf:

    score(q, d) = sum over query tokens t of
                  idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avglen))
    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))

Repeated query tokens contribute once per occurrence. Only passages
matching at least one query term are returned. The tokenizer is
deliberately simple (lowercase, split on non-alphanumeric runs, no
stemming or stopwords) so independent scorers can reproduce results
exactly. Indexes are immutable after build; concurrent searches over a
shared index are safe.

Postings are CSR arrays: term ``t`` owns row ``terms[t]``, whose passage
ordinals (increasing) and term frequencies are ``ords`` and ``tfs`` over
``offsets[row]:offsets[row + 1]``. Search scores term-at-a-time with
vectorised adds in query-token order, so each passage's float additions
happen in the same order as a per-posting loop and scores are
bit-identical to it.
"""

from __future__ import annotations

import io
import json
import math
import re
import zipfile
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .config import Bm25Params
from .corpus import Passage, replacing
from .errors import DataError, DuplicateId, EmptyCollection
from .ranking import RankedList, id_ranks, stored_id_ranks, top_k

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same rule for ASCII text as a byte table: A-Z folds to a-z, the rest
# of [a-z0-9] maps to itself and every other byte to a space.
_ASCII_TOKEN_TABLE = bytes(ord(c.lower()) if c.isalnum() else 0x20 for c in map(chr, range(128))) + b" " * 128

INDEX_FORMAT = "icr-sparse-index"
INDEX_VERSION = 4

# Archive members in write order; each is an .npy array of byte planes
# (see ``_to_planes``), ``meta`` holding the JSON header (format, version,
# params, ids, terms) as UTF-8 bytes and ``id_rank`` the ordinal -> id rank
# map, so a load does not sort the ids.
_MEMBERS = ("meta", "offsets", "ord_gaps", "tfs", "doc_lengths", "id_rank")
_FIXED_TIME = (1980, 1, 1, 0, 0, 0)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; drops empty tokens.

    ``_TOKEN_RE`` on the lowercased text is the definition. Text that is
    ASCII once lowercased (the Kelvin sign lowercases to ``k``) takes an
    equivalent byte-table path, about twice as fast.
    """
    if not text.isascii():
        text = text.lower()
        if not text.isascii():
            return _TOKEN_RE.findall(text)
    return text.encode("ascii").translate(_ASCII_TOKEN_TABLE).decode("ascii").split()


@dataclass
class SparseIndex:
    params: Bm25Params
    terms: dict[str, int]  # term -> CSR row
    offsets: np.ndarray  # int64, len(terms) + 1
    ords: np.ndarray  # int32 passage ordinals, increasing within a row
    tfs: np.ndarray  # int32 term frequencies, parallel to ords
    doc_lengths: np.ndarray  # int64 token count per ordinal
    ids: list[str]  # ordinal -> passage id
    id_rank: np.ndarray | None = None  # ordinal -> rank of its id; None computes it
    avg_doc_length: float = field(init=False)
    ordinals: dict[str, int] = field(init=False)  # passage id -> ordinal
    # k1 * (1 - b + b * len(d) / avglen) per ordinal, the length part of
    # the BM25 denominator in the scalar formula's operation order
    length_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k1, b = self.params.k1, self.params.b
        self.avg_doc_length = int(self.doc_lengths.sum()) / len(self.doc_lengths)
        self.ordinals = dict(zip(self.ids, range(len(self.ids))))
        if self.id_rank is None:
            self.id_rank = id_ranks(self.ids)
        # an average of 0 means no passage has a token, so no norm is read
        avg = self.avg_doc_length or 1.0
        self.length_norm = k1 * (1.0 - b + b * self.doc_lengths / avg)

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self.ordinals


def build_sparse_index(collection: Iterable[Passage], params: Bm25Params | None = None) -> SparseIndex:
    """Build an inverted index over a passage collection.

    Deterministic for a given input order. Raises EmptyCollection when the
    collection yields no passages and DuplicateId on repeated ids.
    """
    params = params or Bm25Params()
    terms: dict[str, int] = {}
    rows: list[int] = []  # the CSR row of every token, passage by passage
    doc_lengths: list[int] = []
    ids: dict[str, None] = {}  # an insertion-ordered set
    for passage in collection:
        if passage.id in ids:
            raise DuplicateId(passage.id)
        ids[passage.id] = None
        tokens = tokenize(passage.text)
        doc_lengths.append(len(tokens))
        rows.extend([terms.setdefault(term, len(terms)) for term in tokens])
    if not ids:
        raise EmptyCollection("cannot build an index over an empty collection")
    # one key, row * n + ordinal, per token: the distinct keys in sorted
    # order are the postings in CSR order, and their counts are the tfs
    n = len(ids)
    lengths = np.array(doc_lengths, dtype=np.int64)
    keys = np.array(rows, dtype=np.int64)
    del rows  # freed before the sort, which sets build-index's peak memory
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    posting_rows, ords = np.divmod(keys, n)
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(posting_rows, minlength=len(terms)), out=offsets[1:])
    return SparseIndex(params, terms, offsets, ords.astype(np.int32), tfs.astype(np.int32), lengths, list(ids))


def search_sparse(index: SparseIndex, query: str, k: int, tag: str | None = None) -> RankedList:
    """BM25 top-k search; an unknown-terms query yields an empty list."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k1 = index.params.k1
    n = index.doc_count
    scores = np.zeros(n)
    matched = np.zeros(n, dtype=bool)
    for term in tokenize(query):
        row = index.terms.get(term)
        if row is None:
            continue
        lo, hi = int(index.offsets[row]), int(index.offsets[row + 1])
        ords, tfs = index.ords[lo:hi], index.tfs[lo:hi]
        df = hi - lo
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        scores[ords] += idf * tfs * (k1 + 1.0) / (tfs + index.length_norm[ords])
        matched[ords] = True
    hits = np.flatnonzero(matched)
    return top_k(tag if tag is not None else query, scores[hits], index.ids, index.id_rank, k, hits)


def _ord_gaps(index: SparseIndex) -> np.ndarray:
    """Ordinals delta-coded within each row (a row's first gap is its first
    ordinal); small gaps compress far better than ordinals."""
    gaps = np.diff(index.ords, prepend=0)
    starts = index.offsets[:-1]
    gaps[starts] = index.ords[starts]
    return gaps


def _narrow(values: np.ndarray) -> np.ndarray:
    """The smallest unsigned dtype holding every (non-negative) value; the
    loader widens again, and there is less to inflate."""
    return values.astype(np.min_scalar_type(int(values.max(initial=0))))


def _to_planes(values: np.ndarray) -> np.ndarray:
    """A 1-D unsigned array as a ``(itemsize, n)`` uint8 array of its
    little-endian bytes, least significant first. Small values leave the
    high planes runs of zeros, which deflate fast."""
    le = values.astype(values.dtype.newbyteorder("<"), copy=False)
    return np.ascontiguousarray(le.view(np.uint8).reshape(len(values), values.dtype.itemsize).T)


def _from_planes(path: str, name: str, planes: np.ndarray) -> np.ndarray:
    """Undo ``_to_planes``, returning unsigned values of the plane count's width."""
    if planes.dtype != np.uint8 or planes.ndim != 2 or len(planes) not in (1, 2, 4, 8):
        raise DataError(f"{path}: sparse index member {name} is not a byte-plane array")
    return np.ascontiguousarray(planes.T).view(f"<u{len(planes)}").ravel()


def save_sparse_index(index: SparseIndex, path: str) -> None:
    """Persist the index as a deflated archive of .npy members (npz layout).

    Byte-identical for identical inputs: members have fixed names, order
    and timestamps.
    """
    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "params": {"k1": index.params.k1, "b": index.params.b},
        "ids": index.ids,
        "terms": list(index.terms),
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta, ensure_ascii=False).encode("utf-8"), dtype=np.uint8),
        "offsets": _narrow(index.offsets),
        "ord_gaps": _narrow(_ord_gaps(index)),
        "tfs": _narrow(index.tfs),
        "doc_lengths": _narrow(index.doc_lengths),
        "id_rank": _narrow(index.id_rank),
    }
    with replacing(path) as temp, zipfile.ZipFile(temp, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name in _MEMBERS:
            buf = io.BytesIO()
            np.lib.format.write_array(buf, _to_planes(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_FIXED_TIME)
            info.compress_type = zipfile.ZIP_DEFLATED
            # level 1 deflates byte planes almost as small as level 6, far faster
            zf.writestr(info, buf.getvalue(), compresslevel=1)


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    with zf.open(f"{name}.npy") as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


def load_sparse_index(path: str) -> SparseIndex:
    """Load an index written by ``save_sparse_index`` (version 4 only)."""
    with open(path, "rb") as fh:
        if fh.read(2) == b"\x1f\x8b":
            raise DataError(
                f"{path}: sparse index version 1 (gzipped JSON) is no longer supported; "
                f"re-run build-index to write version {INDEX_VERSION}"
            )
    try:
        with zipfile.ZipFile(path) as zf:
            # version 2 wrote ``meta`` as a flat byte array, whose bytes read
            # the same, so its version is known before the layout is checked
            meta_planes = _read_member(zf, "meta")
            meta = json.loads(meta_planes.tobytes().decode("utf-8"))
            if not isinstance(meta, dict) or meta.get("format") != INDEX_FORMAT:
                raise DataError(f"{path}: not a sparse index artifact")
            if meta.get("version") != INDEX_VERSION:
                raise DataError(
                    f"{path}: unsupported sparse index version {meta.get('version')}; "
                    f"re-run build-index to write version {INDEX_VERSION}"
                )
            _from_planes(path, "meta", meta_planes)
            offsets, gaps, tfs, doc_lengths, id_rank = (
                _from_planes(path, name, _read_member(zf, name)) for name in _MEMBERS[1:]
            )
            offsets = offsets.astype(np.int64)
    except (KeyError, ValueError, zipfile.BadZipFile) as e:
        raise DataError(f"{path}: not a sparse index artifact ({e})") from e
    ids, terms, params = meta.get("ids"), meta.get("terms"), meta.get("params")
    if not isinstance(ids, list) or not isinstance(terms, list) or not isinstance(params, dict):
        raise DataError(f"{path}: sparse index meta needs lists of ids and terms and a params object")
    try:
        params = Bm25Params(**params)
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: sparse index params are invalid ({e})") from e
    if (
        not ids
        or len(doc_lengths) != len(ids)
        or len(offsets) != len(terms) + 1
        or offsets[0] != 0
        or np.any(np.diff(offsets) < 1)
        or offsets[-1] != len(gaps)
        or len(tfs) != len(gaps)
    ):
        raise DataError(f"{path}: sparse index arrays are inconsistent")
    # undo the delta coding: a running sum, restarted at each row
    starts = offsets[:-1]
    ords = np.cumsum(gaps, dtype=np.int64)
    ords -= np.repeat(ords[starts] - gaps[starts], np.diff(offsets))
    if len(ords) and (ords.min() < 0 or ords.max() >= len(ids)):
        raise DataError(f"{path}: sparse index ordinals out of range")
    return SparseIndex(
        params,
        dict(zip(terms, range(len(terms)))),
        offsets,
        ords.astype(np.int32),
        tfs.astype(np.int32),
        doc_lengths.astype(np.int64),
        ids,
        stored_id_ranks(path, id_rank, len(ids)),
    )

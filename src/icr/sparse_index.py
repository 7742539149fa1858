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

Postings are CSR rows: term ``t`` owns row ``terms[t]``, whose passage
ordinals (increasing) and term frequencies ``SparseIndex.postings`` returns.
Rows are cut into blocks of a few thousand postings, and a loaded index
decodes a block the first time a search reads one of its rows. Search
scores term-at-a-time with vectorised adds in query-token order, so each
passage's float additions happen in the same order as a per-posting loop
and scores are bit-identical to it.
"""

from __future__ import annotations

import io
import json
import math
import re
import zipfile
import zlib
from bisect import bisect_right
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
INDEX_VERSION = 5

# Archive members, in write order: meta, offsets, doc_lengths, id_rank,
# postings and blocks. All but ``postings`` are .npy arrays of byte planes
# (see ``_to_planes``) deflated at level 1: ``meta`` holds the JSON header
# (format, version, params, ids, terms) as UTF-8 bytes, ``id_rank`` the
# ordinal -> id rank map, so a load does not sort the ids, and ``blocks``
# the block table. ``postings`` is a flat uint8 array of the blocks' zlib
# streams, stored, so a load inflates none of them.
# A block closes once it holds at least this many postings.
BLOCK_POSTINGS = 4096
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
class PostingBlocks:
    """An index's postings, cut into row-aligned blocks.

    Block ``b`` holds CSR rows ``first_rows[b]:first_rows[b + 1]``. A built
    index has every block in ``decoded``. A loaded one keeps the compressed
    blocks, ``streams[bounds[b]:bounds[b + 1]]`` being block ``b``'s zlib
    stream, and decodes a block on first use.
    """

    first_rows: list[int]
    decoded: dict[int, tuple[np.ndarray, np.ndarray]]  # block -> its (ords, tfs), both int32
    path: str = ""  # a loaded index's archive, named in errors
    streams: np.ndarray | None = None  # uint8
    bounds: list[int] | None = None


@dataclass
class SparseIndex:
    params: Bm25Params
    terms: dict[str, int]  # term -> CSR row
    offsets: np.ndarray  # int64, len(terms) + 1; row r's postings are offsets[r]:offsets[r + 1]
    blocks: PostingBlocks
    doc_lengths: np.ndarray  # int64 token count per ordinal
    ids: list[str]  # ordinal -> passage id
    id_rank: np.ndarray | None = None  # ordinal -> rank of its id; None computes it
    avg_doc_length: float = field(init=False)
    ordinals: dict[str, int] = field(init=False)  # passage id -> ordinal
    # k1 * (1 - b + b * len(d) / avglen) per ordinal, the length part of
    # the BM25 denominator in the scalar formula's operation order
    length_norm: np.ndarray = field(init=False, repr=False)
    # bytes per stored ordinal gap and per stored tf: the narrowest unsigned
    # types that hold every ordinal (below the passage count) and every tf
    # (at most the longest passage's length)
    widths: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k1, b = self.params.k1, self.params.b
        self.avg_doc_length = int(self.doc_lengths.sum()) / len(self.doc_lengths)
        self.ordinals = dict(zip(self.ids, range(len(self.ids))))
        if self.id_rank is None:
            self.id_rank = id_ranks(self.ids)
        # an average of 0 means no passage has a token, so no norm is read
        avg = self.avg_doc_length or 1.0
        self.length_norm = k1 * (1.0 - b + b * self.doc_lengths / avg)
        longest = int(self.doc_lengths.max())
        self.widths = (np.min_scalar_type(len(self.ids) - 1).itemsize, np.min_scalar_type(longest).itemsize)

    @property
    def doc_count(self) -> int:
        return len(self.ids)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self.ordinals

    def postings(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``row``'s passage ordinals (increasing) and term frequencies,
        both int32, decoding the row's block on first use."""
        first_rows = self.blocks.first_rows
        block = bisect_right(first_rows, row) - 1
        ords, tfs = self._block(block)
        start = self.offsets[first_rows[block]]
        lo, hi = self.offsets[row] - start, self.offsets[row + 1] - start
        return ords[lo:hi], tfs[lo:hi]

    def _block(self, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Block ``block``'s ords and tfs, decoded on first use."""
        blocks, path = self.blocks, self.blocks.path
        arrays = blocks.decoded.get(block)
        if arrays is not None:
            return arrays
        first_rows, offsets = blocks.first_rows, self.offsets
        count = int(offsets[first_rows[block + 1]] - offsets[first_rows[block]])
        gap_width, tf_width = self.widths
        try:
            raw = zlib.decompress(blocks.streams[blocks.bounds[block] : blocks.bounds[block + 1]])
        except zlib.error as e:
            raise DataError(f"{path}: sparse index postings block {block} is damaged ({e})") from e
        if len(raw) != count * (gap_width + tf_width):
            raise DataError(f"{path}: sparse index postings block {block} has the wrong length")
        planes = np.frombuffer(raw, dtype=np.uint8).reshape(gap_width + tf_width, count)
        gaps = _from_planes(path, "postings", planes[:gap_width])
        tfs = _from_planes(path, "postings", planes[gap_width:])
        ords = np.cumsum(gaps, dtype=gaps.dtype)  # see ``_encode``
        if ords.max() >= self.doc_count:
            raise DataError(f"{path}: sparse index ordinals out of range")
        # threads that decode one block at once store equal arrays; the first stays
        return blocks.decoded.setdefault(block, (ords.astype(np.int32), tfs.astype(np.int32)))


def _cut(offsets: np.ndarray) -> list[int]:
    """The first rows of the blocks, ending with the row count. A block
    closes at the end of the row that brings it to ``BLOCK_POSTINGS``."""
    rows = len(offsets) - 1
    first_rows = [0]
    while first_rows[-1] < rows:
        end = int(np.searchsorted(offsets, offsets[first_rows[-1]] + BLOCK_POSTINGS))
        first_rows.append(min(end, rows))
    return first_rows


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
    ords, tfs = ords.astype(np.int32), tfs.astype(np.int32)
    first_rows = _cut(offsets)
    starts = offsets[first_rows].tolist()
    decoded = {block: (ords[lo:hi], tfs[lo:hi]) for block, (lo, hi) in enumerate(zip(starts, starts[1:]))}
    return SparseIndex(params, terms, offsets, PostingBlocks(first_rows, decoded), lengths, list(ids))


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
        ords, tfs = index.postings(row)
        df = len(ords)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        scores[ords] += idf * tfs * (k1 + 1.0) / (tfs + index.length_norm[ords])
        matched[ords] = True
    hits = np.flatnonzero(matched)
    return top_k(tag if tag is not None else query, scores[hits], index.ids, index.id_rank, k, hits)


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
    # shifting in one plane at a time is several times faster than a transpose
    values = planes[-1].astype(f"u{len(planes)}")
    for plane in planes[-2::-1]:
        values <<= 8
        values |= plane
    return values


def _encode(index: SparseIndex, block: int) -> bytes:
    """Block ``block`` as one zlib stream: the byte planes of its ordinal
    gaps, then those of its tfs.

    Small gaps compress far better than ordinals. Each gap is taken from
    the posting before it, across rows too, modulo ``2 ** (8 * width)``: a
    row's first gap wraps around from the last ordinal of the row before.
    Every ordinal is below that modulus, so a running sum in the gaps' own
    unsigned type gives back every ordinal, with no restart per row.
    """
    ords, tfs = index._block(block)
    gap_width, tf_width = index.widths
    gaps = np.diff(ords, prepend=0).astype(f"u{gap_width}")
    planes = (_to_planes(gaps), _to_planes(tfs.astype(f"u{tf_width}")))
    # level 1 deflates byte planes almost as small as level 6, far faster
    return zlib.compress(b"".join(p.tobytes() for p in planes), 1)


def _write_member(zf: zipfile.ZipFile, name: str, array: np.ndarray, compress_type: int) -> None:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, allow_pickle=False)
    info = zipfile.ZipInfo(f"{name}.npy", date_time=_FIXED_TIME)
    info.compress_type = compress_type
    zf.writestr(info, buf.getvalue(), compresslevel=1)


def save_sparse_index(index: SparseIndex, path: str) -> None:
    """Persist the index as a zip archive of .npy members (npz layout).

    Byte-identical for identical inputs: members have fixed names, order
    and timestamps. The block table is the blocks' first rows, then the
    byte bounds of their streams in ``postings``, each list ending with its
    total.
    """
    meta = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "params": {"k1": index.params.k1, "b": index.params.b},
        "ids": index.ids,
        "terms": list(index.terms),
    }
    header = {
        "meta": np.frombuffer(json.dumps(meta, ensure_ascii=False).encode("utf-8"), dtype=np.uint8),
        "offsets": _narrow(index.offsets),
        "doc_lengths": _narrow(index.doc_lengths),
        "id_rank": _narrow(index.id_rank),
    }
    with replacing(path) as temp, zipfile.ZipFile(temp, "w") as zf:
        for name, values in header.items():
            _write_member(zf, name, _to_planes(values), zipfile.ZIP_DEFLATED)
        streams = [_encode(index, block) for block in range(len(index.blocks.first_rows) - 1)]
        _write_member(zf, "postings", np.frombuffer(b"".join(streams), dtype=np.uint8), zipfile.ZIP_STORED)
        bounds = np.cumsum([0] + [len(stream) for stream in streams])
        table = _narrow(np.concatenate([index.blocks.first_rows, bounds]))
        _write_member(zf, "blocks", _to_planes(table), zipfile.ZIP_DEFLATED)


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    with zf.open(f"{name}.npy") as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


def load_sparse_index(path: str) -> SparseIndex:
    """Load an index written by ``save_sparse_index`` (version 5 only).

    Reads the header arrays and the compressed postings, whose zip CRC
    covers every block, and decodes no block: ``SparseIndex.postings``
    decodes one on first use.
    """
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
            offsets, doc_lengths, id_rank = (
                _from_planes(path, name, _read_member(zf, name)) for name in ("offsets", "doc_lengths", "id_rank")
            )
            streams = _read_member(zf, "postings")
            table = _from_planes(path, "blocks", _read_member(zf, "blocks"))
    except (KeyError, ValueError, zipfile.BadZipFile) as e:
        raise DataError(f"{path}: not a sparse index artifact ({e})") from e
    if streams.dtype != np.uint8 or streams.ndim != 1:
        raise DataError(f"{path}: sparse index member postings is not a byte array")
    ids, terms, params = meta.get("ids"), meta.get("terms"), meta.get("params")
    if not isinstance(ids, list) or not isinstance(terms, list) or not isinstance(params, dict):
        raise DataError(f"{path}: sparse index meta needs lists of ids and terms and a params object")
    try:
        params = Bm25Params(**params)
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: sparse index params are invalid ({e})") from e
    offsets, table = offsets.astype(np.int64), table.astype(np.int64)
    first_rows, bounds = table[: len(table) // 2], table[len(table) // 2 :]
    if (
        not ids
        or len(doc_lengths) != len(ids)
        or len(offsets) != len(terms) + 1
        or offsets[0] != 0
        or np.any(np.diff(offsets) < 1)
        or len(table) % 2
        or not len(table)
        or first_rows[0] != 0
        or first_rows[-1] != len(terms)
        or np.any(np.diff(first_rows) < 1)
        or bounds[0] != 0
        or bounds[-1] != len(streams)
        or np.any(np.diff(bounds) < 0)
    ):
        raise DataError(f"{path}: sparse index arrays are inconsistent")
    return SparseIndex(
        params,
        dict(zip(terms, range(len(terms)))),
        offsets,
        PostingBlocks(first_rows.tolist(), {}, path, streams, bounds.tolist()),
        doc_lengths.astype(np.int64),
        ids,
        stored_id_ranks(path, id_rank, len(ids)),
    )

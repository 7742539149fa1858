"""Passage collections, conversational datasets, and relevance judgments.

On-disk formats:
  collection:  TSV (``id<TAB>text``) or JSONL (``{"id": ..., "text": ...}``)
  CQR dataset: JSONL with ``sample_id``, ``history`` (list of
               ``{"query", "answer"}``), ``query``, ``gold_passage_ids``
  qrels:       4-column TREC text (``qid 0 docid grade``)

All text is treated as opaque UTF-8; tokenization and any normalization
happen in the index modules. Loaded values are not mutated after
construction and are safe to share across threads.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterator, TextIO

from .errors import DuplicateId, MalformedRecord, MissingField


@dataclass(frozen=True)
class Passage:
    id: str
    text: str


@dataclass(frozen=True)
class Turn:
    query: str
    answer: str


@dataclass
class CQRSample:
    """One conversational test/train instance.

    ``history`` is the prior dialogue in turn order and may be empty (first
    turn). ``gold_passage_ids`` is the set of passages relevant to the
    current query; it must be non-empty for samples fed to trajectory
    construction, but load-time samples may carry an empty set.
    """

    sample_id: str
    history: list[Turn]
    query: str
    gold_passage_ids: set[str]


class Qrels:
    """Relevance grades by sample, then by passage.

    Later duplicate lines overwrite earlier ones; ``overwrites`` counts how
    often that happened during loading. Per-sample lookups touch only that
    sample's grades; ``set`` is the only writer.
    """

    def __init__(self) -> None:
        self.overwrites = 0
        self._by_sample: dict[str, dict[str, int]] = {}

    def set(self, sample_id: str, passage_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"relevance grade must be >= 0, got {grade}")
        grades = self._by_sample.setdefault(sample_id, {})
        self.overwrites += passage_id in grades
        grades[passage_id] = grade

    def for_sample(self, sample_id: str) -> dict[str, int]:
        return dict(self._by_sample.get(sample_id, {}))

    def relevant_ids(self, sample_id: str) -> set[str]:
        return {pid for pid, g in self._by_sample.get(sample_id, {}).items() if g >= 1}

    def sample_ids(self) -> list[str]:
        return list(self._by_sample)

    def __len__(self) -> int:
        return sum(map(len, self._by_sample.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Qrels):
            return NotImplemented
        return self._by_sample == other._by_sample


def _infer_format(path: str) -> str:
    if str(path).endswith(".jsonl"):
        return "jsonl"
    return "tsv"


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Stream ``(line_no, record)`` from a JSONL file, skipping blank lines.

    Raises:
        MalformedRecord: a line is not valid JSON (which includes invalid
            UTF-8, as in a line cut inside a character), or not a JSON object.
    """
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
                raise MalformedRecord(path, line_no, f"invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise MalformedRecord(path, line_no, "expected a JSON object")
            yield line_no, obj


def _jsonl_line(obj) -> str:
    """One JSONL record in the compact encoding every dataset writer uses."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


@contextmanager
def replacing(path: str) -> Iterator[str]:
    """Yield a new sibling, ``<path>.<hex>.tmp``, to write in place of ``path``,
    made with the mode ``open(path, "w")`` would give. One rename puts it over
    ``path`` if the block succeeds; any exception removes it instead. An
    OSError about the sibling is raised as one naming ``path``."""
    temp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        yield temp
        os.replace(temp, path)
    except BaseException as e:
        with suppress(FileNotFoundError):
            os.remove(temp)
        if isinstance(e, OSError) and e.filename == temp:
            raise OSError(e.errno, e.strerror, path) from None
        raise


@contextmanager
def _open_text(path: str, start: int = 0, stop: int | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading, or only its bytes ``[start,
    stop)``, which are read at once and should begin at a line start.

    Raises:
        MalformedRecord: invalid UTF-8 is read, naming the file's first bad
            line.
    """
    try:
        if start == 0 and stop is None:
            with open(path, encoding="utf-8") as fh:
                yield fh
        else:
            with open(path, "rb") as raw:
                raw.seek(start)
                data = raw.read(-1 if stop is None else stop - start)
            with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError:
        raise MalformedRecord(path, _first_bad_line(path), "invalid UTF-8") from None


def _first_bad_line(path: str) -> int:
    """The number of the first line holding invalid UTF-8, counting lines
    as iterating the file does: the bad bytes decode to lone surrogates."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                break
    return line_no


def _collection_rows(path: str, fmt: str) -> Iterator[tuple[int, str, str]]:
    """``(line_no, id, text)`` per passage line of a collection file."""
    if fmt == "jsonl":
        for line_no, obj in read_jsonl(path):
            if "id" not in obj or "text" not in obj:
                raise MalformedRecord(path, line_no, "record needs id and text fields")
            pid, text = obj["id"], obj["text"]
            if isinstance(pid, bool) or not isinstance(pid, (str, int)):
                raise MalformedRecord(path, line_no, "id must be a string or an integer")
            if not isinstance(text, str):
                raise MalformedRecord(path, line_no, "text must be a string")
            yield line_no, str(pid), text
        return
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise MalformedRecord(path, line_no, "expected id<TAB>text")
            yield line_no, *line.split("\t", 1)


def load_collection(path: str, format: str | None = None) -> Iterator[Passage]:
    """Stream passages from a TSV or JSONL collection file.

    Yields passages in file order. Memory use is bounded by one record plus
    the ids seen so far and their first lines (kept for duplicate detection).

    Raises:
        MalformedRecord: unparseable line, empty id, a JSONL id that is not
            a string or an integer, or a JSONL text that is not a string.
        DuplicateId: the same id appears twice, naming both lines.
    """
    fmt = format or _infer_format(path)
    if fmt not in ("tsv", "jsonl"):
        raise ValueError(f"unknown collection format {fmt!r}")
    first_line: dict[str, int] = {}
    for line_no, pid, text in _collection_rows(path, fmt):
        if not pid:
            raise MalformedRecord(path, line_no, "empty passage id")
        if pid in first_line:
            raise DuplicateId(pid, path, line_no, first_line[pid])
        first_line[pid] = line_no
        yield Passage(pid, text)


def _require(obj: dict, name: str, path: str, line_no: int):
    if name not in obj:
        raise MissingField(name, path, line_no)
    return obj[name]


def load_cqr_dataset(path: str) -> list[CQRSample]:
    """Load a conversational query-rewriting dataset from JSONL.

    Samples are returned in file order with history order preserved.

    Raises:
        MalformedRecord: unparseable JSON, invalid turn content, a
            ``query`` or history ``query``/``answer`` that is not a string,
            a ``sample_id`` or a ``gold_passage_ids`` entry that is not a
            string or an integer, or a repeated ``sample_id``.
        MissingField: a required field is absent.
    """
    samples: list[CQRSample] = []
    first_line: dict[str, int] = {}
    for line_no, obj in read_jsonl(path):
        sample_id = _require(obj, "sample_id", path, line_no)
        if isinstance(sample_id, bool) or not isinstance(sample_id, (str, int)):
            raise MalformedRecord(path, line_no, "sample_id must be a string or an integer")
        sample_id = str(sample_id)
        if sample_id in first_line:
            raise MalformedRecord(
                path, line_no, f"sample_id {sample_id!r} repeats line {first_line[sample_id]}"
            )
        first_line[sample_id] = line_no
        raw_history = _require(obj, "history", path, line_no)
        query = _require(obj, "query", path, line_no)
        gold = _require(obj, "gold_passage_ids", path, line_no)
        if not isinstance(raw_history, list):
            raise MalformedRecord(path, line_no, "history is not a list")
        history: list[Turn] = []
        for i, t in enumerate(raw_history):
            if not isinstance(t, dict):
                raise MalformedRecord(path, line_no, f"history[{i}] is not an object")
            if "query" not in t:
                raise MissingField(f"history[{i}].query", path, line_no)
            if "answer" not in t:
                raise MissingField(f"history[{i}].answer", path, line_no)
            for name in ("query", "answer"):
                if not isinstance(t[name], str):
                    raise MalformedRecord(path, line_no, f"history[{i}].{name} must be a string")
            if not t["query"]:
                raise MalformedRecord(path, line_no, f"history[{i}].query is empty")
            history.append(Turn(t["query"], t["answer"]))
        if not isinstance(query, str):
            raise MalformedRecord(path, line_no, "query must be a string")
        if not query:
            raise MalformedRecord(path, line_no, "query is empty")
        if not isinstance(gold, list) or any(isinstance(g, bool) or not isinstance(g, (str, int)) for g in gold):
            raise MalformedRecord(path, line_no, "gold_passage_ids must be a list of strings or integers")
        samples.append(CQRSample(sample_id, history, query, {str(g) for g in gold}))
    return samples


def load_qrels(path: str) -> Qrels:
    """Load TREC-format qrels (``qid 0 docid grade``, whitespace-separated).

    Duplicate (qid, docid) lines overwrite earlier grades and bump
    ``Qrels.overwrites`` instead of failing, matching common IR tooling.
    """
    qrels = Qrels()
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise MalformedRecord(path, line_no, "expected 4 columns: qid 0 docid grade")
            sid, _, pid, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError as e:
                raise MalformedRecord(path, line_no, f"grade {grade_s!r} is not an integer") from e
            if grade < 0:
                raise MalformedRecord(path, line_no, f"grade must be >= 0, got {grade}")
            qrels.set(sid, pid, grade)
    return qrels

from __future__ import annotations

import json

import pytest

from icr.cli import main
from icr.corpus import (
    CQRSample,
    Passage,
    Qrels,
    Turn,
    load_collection,
    load_cqr_dataset,
    load_qrels,
)
from icr.errors import DuplicateId, MalformedRecord, MissingField

from .support import write_collection, write_cqr_dataset, write_qrels


def test_load_tsv_collection(tmp_path):
    path = tmp_path / "coll.tsv"
    path.write_text("p1\thello world\np2\tgoodbye\n", encoding="utf-8")
    passages = list(load_collection(str(path)))
    assert passages == [Passage("p1", "hello world"), Passage("p2", "goodbye")]


def test_load_jsonl_collection(tmp_path):
    path = tmp_path / "coll.jsonl"
    path.write_text(
        json.dumps({"id": "a", "text": "x"}) + "\n" + json.dumps({"id": "b", "text": "y"}) + "\n",
        encoding="utf-8",
    )
    assert [p.id for p in load_collection(str(path))] == ["a", "b"]


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "coll.tsv"
    path.write_text("p1\ta\np1\tb\n", encoding="utf-8")
    with pytest.raises(DuplicateId):
        list(load_collection(str(path)))


def test_empty_collection_file(tmp_path):
    path = tmp_path / "coll.tsv"
    path.write_text("", encoding="utf-8")
    assert list(load_collection(str(path))) == []


def test_malformed_tsv_line(tmp_path):
    path = tmp_path / "coll.tsv"
    path.write_text("p1 no tab here\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        list(load_collection(str(path)))
    assert err.value.line_no == 1


def test_tsv_text_may_contain_tabs(tmp_path):
    path = tmp_path / "coll.tsv"
    path.write_text("p1\ta\tb\n", encoding="utf-8")
    assert list(load_collection(str(path)))[0].text == "a\tb"


def test_collection_roundtrip(tmp_path):
    passages = [Passage("p1", "hello"), Passage("p2", "wörld ünïcode")]
    for fmt in ("tsv", "jsonl"):
        path = tmp_path / f"coll.{fmt}"
        write_collection(passages, str(path), fmt)
        assert list(load_collection(str(path), fmt)) == passages


def test_collection_streaming_is_lazy(tmp_path):
    path = tmp_path / "coll.tsv"
    path.write_text("p1\ta\np1\tb\n", encoding="utf-8")
    stream = load_collection(str(path))
    assert next(stream).id == "p1"  # duplicate only hits when reached
    with pytest.raises(DuplicateId):
        next(stream)


def test_load_cqr_dataset_first_turn(tmp_path):
    path = tmp_path / "data.jsonl"
    rec = {"sample_id": "s1", "history": [], "query": "who won?", "gold_passage_ids": ["p9"]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    samples = load_cqr_dataset(str(path))
    assert samples == [CQRSample("s1", [], "who won?", {"p9"})]


def test_load_cqr_dataset_missing_query(tmp_path):
    path = tmp_path / "data.jsonl"
    rec = {"sample_id": "s1", "history": [], "gold_passage_ids": ["p9"]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(MissingField) as err:
        load_cqr_dataset(str(path))
    assert err.value.name == "query"


def test_load_cqr_dataset_order_preserved(tmp_path):
    path = tmp_path / "data.jsonl"
    recs = [
        {"sample_id": f"s{i}", "history": [{"query": "q", "answer": "a"}], "query": "x", "gold_passage_ids": []}
        for i in range(3)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
    samples = load_cqr_dataset(str(path))
    assert [s.sample_id for s in samples] == ["s0", "s1", "s2"]
    assert samples[0].history == [Turn("q", "a")]


def test_cqr_dataset_roundtrip(tmp_path):
    samples = [
        CQRSample("s1", [Turn("q1", "a1"), Turn("q2", "a2")], "current?", {"p1", "p2"}),
        CQRSample("s2", [], "first turn", set()),
    ]
    path = tmp_path / "data.jsonl"
    write_cqr_dataset(samples, str(path))
    assert load_cqr_dataset(str(path)) == samples


def test_load_qrels_basic(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("s1 0 p1 1\n", encoding="utf-8")
    qrels = load_qrels(str(path))
    assert qrels.for_sample("s1") == {"p1": 1}
    assert qrels.overwrites == 0


def test_load_qrels_duplicate_overwrites(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("s1 0 p1 1\ns1 0 p1 2\n", encoding="utf-8")
    qrels = load_qrels(str(path))
    assert qrels.for_sample("s1") == {"p1": 2}
    assert qrels.overwrites == 1


def test_load_qrels_negative_grade(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("s1 0 p1 -1\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        load_qrels(str(path))


def test_qrels_roundtrip(tmp_path):
    qrels = Qrels()
    qrels.set("s1", "p1", 1)
    qrels.set("s2", "p3", 2)
    qrels.set("s2", "p1", 0)
    path = tmp_path / "qrels.txt"
    write_qrels(qrels, str(path))
    assert load_qrels(str(path)) == qrels


def test_qrels_relevant_ids_excludes_grade_zero():
    qrels = Qrels()
    qrels.set("s1", "p1", 0)
    qrels.set("s1", "p2", 3)
    assert qrels.relevant_ids("s1") == {"p2"}
    assert qrels.for_sample("s1") == {"p1": 0, "p2": 3}


def test_qrels_sample_index_follows_overwrites():
    qrels = Qrels()
    qrels.set("s2", "p9", 1)
    qrels.set("s1", "p1", 2)
    qrels.set("s1", "p2", 1)
    qrels.set("s1", "p1", 0)
    assert qrels.overwrites == 1
    assert qrels.for_sample("s1") == {"p1": 0, "p2": 1}
    assert list(qrels.for_sample("s1")) == ["p1", "p2"]
    assert qrels.relevant_ids("s1") == {"p2"}
    assert qrels.sample_ids() == ["s2", "s1"]
    assert qrels.for_sample("nope") == {} and qrels.relevant_ids("nope") == set()
    qrels.for_sample("s1")["p3"] = 1  # a copy: the index is not changed
    assert qrels.relevant_ids("s1") == {"p2"}


@pytest.mark.parametrize("history, named", [([1], "history[0]"), (5, "history")], ids=["turn", "list"])
def test_load_cqr_dataset_history_must_be_a_list_of_objects(tmp_path, history, named):
    path = tmp_path / "data.jsonl"
    rec = {"sample_id": "s1", "history": history, "query": "q", "gold_passage_ids": ["p9"]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_cqr_dataset(str(path))
    assert (err.value.path, err.value.line_no) == (str(path), 1)
    assert err.value.reason.startswith(f"{named} is not")


@pytest.mark.parametrize(
    "gold",
    [5, "p1", None, {"p1": 1}, [True], ["p1", None], [1.5], [["p1"]]],
    ids=["int", "string", "null", "object", "bool-item", "null-item", "float-item", "list-item"],
)
def test_load_cqr_dataset_gold_ids_must_be_a_list_of_strings_or_integers(tmp_path, gold):
    # a bare string used to become the set of its characters
    path = tmp_path / "data.jsonl"
    rec = {"sample_id": "s1", "history": [], "query": "q", "gold_passage_ids": gold}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_cqr_dataset(str(path))
    assert (err.value.path, err.value.line_no) == (str(path), 1)
    assert err.value.reason == "gold_passage_ids must be a list of strings or integers"


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("query", 5, "query must be a string"),
        ("query", None, "query must be a string"),
        ("query", ["q"], "query must be a string"),
        ("history", [{"query": 5, "answer": "a"}], "history[0].query must be a string"),
        ("history", [{"query": None, "answer": "a"}], "history[0].query must be a string"),
        ("history", [{"query": "q", "answer": None}], "history[0].answer must be a string"),
        ("history", [{"query": "q", "answer": "a"}, {"query": "q", "answer": 0}], "history[1].answer must be a string"),
        ("sample_id", None, "sample_id must be a string or an integer"),
        ("sample_id", True, "sample_id must be a string or an integer"),
        ("sample_id", 1.5, "sample_id must be a string or an integer"),
        ("sample_id", ["s1"], "sample_id must be a string or an integer"),
    ],
)
def test_load_cqr_dataset_text_fields_must_be_strings(tmp_path, field, value, reason):
    # "query": 5 used to run as the text "5", and null as the text "None"
    path = tmp_path / "data.jsonl"
    good = {"sample_id": "s0", "history": [], "query": "q", "gold_passage_ids": ["p9"]}
    record = dict(good, **{"sample_id": "s1", field: value})
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_cqr_dataset(str(path))
    assert (err.value.path, err.value.line_no, err.value.reason) == (str(path), 2, reason)


def test_load_cqr_dataset_reads_an_integer_sample_id_as_a_string(tmp_path):
    path = tmp_path / "data.jsonl"
    rec = {"sample_id": 7, "history": [{"query": "q0", "answer": ""}], "query": "q", "gold_passage_ids": ["p9"]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    (sample,) = load_cqr_dataset(str(path))
    assert (sample.sample_id, sample.history[0].answer) == ("7", "")


def test_a_dataset_query_that_is_not_a_string_is_a_cli_data_error(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"sample_id": "s1", "history": [], "query": 5, "gold_passage_ids": []}) + "\n")
    out = str(tmp_path / "sft.jsonl")
    assert main(["sftdata", "--crdg", str(tmp_path / "dcr.jsonl"), "--dataset", str(path), "--out", out]) == 2
    assert capsys.readouterr().err == f"data error: {path}:1: query must be a string\n"


def test_load_cqr_dataset_reads_integer_gold_ids_as_strings(tmp_path):
    path = tmp_path / "data.jsonl"
    rec = {"sample_id": "s1", "history": [], "query": "q", "gold_passage_ids": [7, "p2", 7]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    assert load_cqr_dataset(str(path))[0].gold_passage_ids == {"7", "p2"}


@pytest.mark.parametrize("line", ["[1, 2]", '"text"', '{"sample_id": "s1", "hist'])
def test_load_cqr_dataset_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "data.jsonl"
    good = {"sample_id": "s0", "history": [], "query": "q", "gold_passage_ids": ["p9"]}
    path.write_text(json.dumps(good) + "\n\n" + line, encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_cqr_dataset(str(path))
    assert err.value.line_no == 3


def test_jsonl_line_cut_inside_a_character_is_a_malformed_record(tmp_path):
    path = tmp_path / "coll.jsonl"
    line = json.dumps({"id": "p2", "text": "café"}, ensure_ascii=False).encode("utf-8")
    path.write_bytes(b'{"id": "p1", "text": "x"}\n' + line[: line.index(b"\xa9")])
    with pytest.raises(MalformedRecord) as err:
        list(load_collection(str(path)))
    assert err.value.line_no == 2


def test_load_cqr_dataset_rejects_a_repeated_sample_id(tmp_path):
    # a repeat makes infer write one query id twice, a run evaluate rejects
    path = tmp_path / "data.jsonl"
    rows = [{"sample_id": sid, "history": [], "query": "q", "gold_passage_ids": ["p9"]} for sid in "aba"]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_cqr_dataset(str(path))
    assert (err.value.line_no, err.value.reason) == (3, "sample_id 'a' repeats line 1")


@pytest.mark.parametrize(
    "load, good",
    [
        (lambda p: list(load_collection(p)), b"p1\tcaf\xc3\xa9\n"),
        (load_qrels, b"q1 0 p1 1\n"),
    ],
    ids=["tsv-collection", "qrels"],
)
def test_invalid_utf8_in_a_text_file_is_a_malformed_record(tmp_path, load, good):
    path = tmp_path / "input.txt"
    path.write_bytes(good + b"\n" + good.replace(b"1", b"\xff2", 1))
    with pytest.raises(MalformedRecord) as err:
        load(str(path))
    assert (err.value.path, err.value.line_no, err.value.reason) == (str(path), 3, "invalid UTF-8")


@pytest.mark.parametrize(
    "record, field",
    [
        ({"id": None, "text": "alpha beta"}, "id"),
        ({"id": ["x"], "text": "alpha"}, "id"),
        ({"id": True, "text": "alpha"}, "id"),
        ({"id": 1.5, "text": "alpha"}, "id"),
        ({"id": {"a": 1}, "text": "alpha"}, "id"),
        ({"id": "p2", "text": {"a": 1}}, "text"),
        ({"id": "p2", "text": None}, "text"),
        ({"id": "p2", "text": 7}, "text"),
        ({"id": "p2", "text": ["alpha"]}, "text"),
    ],
    ids=["null-id", "list-id", "bool-id", "float-id", "object-id", "object-text", "null-text", "number-text",
         "list-text"],
)
def test_jsonl_collection_rejects_ids_and_texts_of_other_types(tmp_path, record, field):
    path = tmp_path / "coll.jsonl"
    lines = [{"id": "p1", "text": "alpha"}, record]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        list(load_collection(str(path)))
    assert (err.value.path, err.value.line_no) == (str(path), 2)
    assert field in err.value.reason


def test_jsonl_collection_accepts_integer_ids(tmp_path):
    path = tmp_path / "coll.jsonl"
    path.write_text('{"id": 7, "text": "alpha"}\n{"id": "p8", "text": ""}\n', encoding="utf-8")
    assert list(load_collection(str(path))) == [Passage("7", "alpha"), Passage("p8", "")]


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_duplicate_id_names_the_file_and_both_lines(tmp_path, fmt):
    path = tmp_path / f"coll.{fmt}"
    passages = [Passage("p1", "a"), Passage("p2", "b"), Passage("p1", "c")]
    write_collection(passages, str(path), fmt)
    with pytest.raises(DuplicateId) as err:
        list(load_collection(str(path)))
    assert err.value.passage_id == "p1"
    assert str(err.value) == f"{path}:3: duplicate passage id 'p1' (first on line 1)"


def test_duplicate_id_from_a_library_builder_keeps_the_bare_message():
    from icr.sparse_index import build_sparse_index

    with pytest.raises(DuplicateId) as err:
        build_sparse_index([Passage("p1", "a"), Passage("p1", "b")])
    assert str(err.value) == "duplicate passage id 'p1'" and err.value.passage_id == "p1"

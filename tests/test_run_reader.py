"""Property: the column-backed run reader reads what the row-tuple oracle
reads, or rejects the same line for the same reason."""

from __future__ import annotations

import pytest

from icr import ranking
from icr.errors import MalformedRecord
from icr.ranking import read_run

from .oracles import oracle_read_run

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# numpy's strings drop a trailing NUL, so ids holding one must read as Python reads them
QIDS = ["q1", "q2", "é3", "問4", "n\x00", "n\x00ul"]
PIDS = ["d1", "d2", "d3", "d10", "d11", "ü", "日本", "p-7", "a", "b", "d\x00", "d\x00x"]
# whitespace that str.split() splits on; only "\n" and "\r\n" end a line
SEPARATORS = [
    " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2000", "\u2028", "\u2029", "\u3000",
]
# Python-only spellings (1_0, Arabic-Indic digits) that numpy's reader rejects
SCORES = ["1.0", "2.5", "-0.0", "0", "3e-3", "7", "1_0.5", "١.٥"]
BAD_SCORES = ["nan", "inf", "-Infinity", "1e999"]
# the rank column is not read, so any token will do
RANKS = ["1", "2", "10", "0", "-1", "1_0", "١", "1.5", "x", str(2**63)]
BLANKS = ["", "  ", "\t", "　", "\x0b", "\u2028"]


@st.composite
def run_files(draw) -> bytes:
    """Run lines with tied and out-of-order scores, queries split over
    blocks, blank lines, mixed whitespace and line ends, and now and then a
    dropped or extra column, a non-finite score or a docid repeated within a
    query or across two."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from(QIDS), st.sampled_from(PIDS), st.sampled_from(RANKS), st.sampled_from(SCORES)),
        max_size=20,
    ))
    lines = []
    for qid, pid, rank, score in rows:
        columns = [qid, "Q0", pid, rank, score, "T"]
        spoil = draw(st.integers(0, 39))
        if spoil == 0:
            del columns[draw(st.integers(0, 5))]
        elif spoil == 1:
            columns.append("extra")
        elif spoil == 2:
            columns[4] = draw(st.sampled_from(BAD_SCORES))
        seps = [draw(st.sampled_from(SEPARATORS)) for _ in columns]
        lines.append("".join(c + sep for c, sep in zip(columns, seps)).rstrip(" "))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(BLANKS)))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines).encode("utf-8")


def _read(reader, path: str):
    try:
        run = reader(path)
    except MalformedRecord as e:
        return ("rejected", e.line_no, e.reason)
    return [(qid, run[qid].query_tag, [(pid, score.hex()) for pid, score in run[qid].entries]) for qid in run]


def test_read_run_matches_the_row_tuple_oracle(tmp_path_factory):
    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(run_files())
    def check(data):
        path = tmp_path_factory.mktemp("run") / "run.trec"
        path.write_bytes(data)
        assert _read(read_run, str(path)) == _read(oracle_read_run, str(path))

    check()


# readlines() reads past this many characters, so a chunk holds about three
# of the generated lines, and chunk edges fall on blank, bad and repeated lines
SMALL_CHUNK = 40


def test_read_run_matches_the_oracle_over_many_chunks(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(ranking, "_CHUNK_CHARS", SMALL_CHUNK)

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(run_files())
    def check(data):
        path = tmp_path_factory.mktemp("run") / "run.trec"
        path.write_bytes(data)
        assert _read(read_run, str(path)) == _read(oracle_read_run, str(path))

    check()


@pytest.mark.parametrize("first, later", [
    ("q1 Q0 x 1 nan T", "q1 Q0 y 2 1.0"),  # non-finite score, then a dropped column
    ("q1 Q0 x 1 1_x T", "q1 Q0 y 2 inf T"),  # a score neither reader parses
    ("q1 Q0 x 1 1.0 T extra", "q1 Q0 y 1_x 1.0 T"),  # the later rank is not read, so it is not bad
])
def test_the_first_of_two_bad_lines_in_different_chunks_is_named(tmp_path, monkeypatch, first, later):
    monkeypatch.setattr(ranking, "_CHUNK_CHARS", SMALL_CHUNK)
    lines = [f"q1 Q0 d{i} {i} 1.0 T" for i in range(1, 13)]
    lines[4], lines[10] = first, later
    path = tmp_path / "run.trec"
    path.write_text("\n".join(lines) + "\n")
    want = _read(oracle_read_run, str(path))
    assert want[:2] == ("rejected", 5)
    assert _read(read_run, str(path)) == want


def test_a_repeat_after_blank_lines_on_chunk_edges_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(ranking, "_CHUNK_CHARS", SMALL_CHUNK)
    path = tmp_path / "run.trec"
    path.write_text("q1 Q0 a 1 1.0 T\nq1 Q0 b 2 1.0 T\n\n\n\nq2 Q0 a 1 1.0 T\n\nq1 Q0 c 3 1.0 T\n\nq1 Q0 a 4 1.0 T\n")
    with pytest.raises(MalformedRecord) as err:
        read_run(str(path))
    assert (err.value.line_no, err.value.reason) == (10, "docid 'a' repeats in query 'q1'")


def test_clean_chunks_never_take_the_per_line_rules(tmp_path, monkeypatch):
    def per_line(*args):
        raise AssertionError("a clean chunk took the per-line rules")

    monkeypatch.setattr(ranking, "_CHUNK_CHARS", SMALL_CHUNK)
    monkeypatch.setattr(ranking, "_parse_lines", per_line)
    path = tmp_path / "run.trec"
    path.write_text("\n\n".join(f"q{i % 3}\tQ0  d{i} {i} {i / 7!r} T" for i in range(30)) + "\n")
    assert _read(read_run, str(path)) == _read(oracle_read_run, str(path))


def test_run_membership_and_length_match_its_queries(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("q2 Q0 a 1 1.0 T\nq1 Q0 b 1 1.0 T\nq2 Q0 c 2 0.5 T\n")
    run = read_run(str(path))
    assert list(run) == ["q2", "q1"] and len(run) == 2
    assert "q1" in run and "q3" not in run
    assert run.get("q3") is None
    assert run["q2"].entries == [("a", 1.0), ("c", 0.5)]


def test_shuffling_lines_within_each_query_reads_the_same(tmp_path_factory):
    # each query's entries follow (score desc, id asc), whatever the line order
    rows = st.tuples(st.sampled_from(QIDS), st.sampled_from(PIDS), st.sampled_from(RANKS), st.sampled_from(SCORES))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.lists(rows, max_size=20, unique_by=lambda r: r[:2]), st.randoms(use_true_random=False))
    def check(rows, rnd):
        by_query: dict[str, list[str]] = {}
        for qid, pid, rank, score in rows:
            by_query.setdefault(qid, []).append(f"{qid} Q0 {pid} {rank} {score} T\n")
        root = tmp_path_factory.mktemp("run")
        written, shuffled = root / "written.trec", root / "shuffled.trec"
        written.write_text("".join(line for lines in by_query.values() for line in lines), encoding="utf-8")
        for lines in by_query.values():
            rnd.shuffle(lines)
        shuffled.write_text("".join(line for lines in by_query.values() for line in lines), encoding="utf-8")
        got = _read(read_run, str(shuffled))
        assert got == _read(read_run, str(written)) == _read(oracle_read_run, str(written))
        for _, _, entries in got:
            assert entries == sorted(entries, key=lambda e: (-float.fromhex(e[1]), e[0]))

    check()

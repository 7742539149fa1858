"""Property: a spoiled CLI input is a data error (exit 2) or is read as the
shorter file it now is (exit 0), never a crash (exit 1)."""

from __future__ import annotations

from pathlib import Path

import pytest

from icr.cli import main
from icr.corpus import Passage

from .conftest import build_cli_workspace, make_tier_corpus
from .support import write_collection

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Bytes that are invalid UTF-8 wherever they are inserted.
BAD_BYTES = [0x80, 0xBF, 0xC0, 0xFF]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("props")
    paths = build_cli_workspace(root / "data")
    # a character of more than one byte, so cuts also land inside one
    passages = make_tier_corpus() + [Passage("café", "crème brûlée")]
    write_collection(passages, paths["collection"])
    paths["jsonl-collection"] = str(root / "data" / "collection.jsonl")
    write_collection(passages, paths["jsonl-collection"])
    paths["sparse"], paths["dense"] = str(root / "sparse.idx.gz"), str(root / "dense.idx")
    paths["crdg"], paths["run"] = str(root / "dcr.jsonl"), str(root / "run.trec")
    iters = root / "iters"
    paths["iter1"], paths["iter2"] = str(iters / "iter_01.trec"), str(iters / "iter_02.trec")
    common = ["--config", paths["config"]]
    gen = ["--dataset", paths["dataset"], "--sparse-index", paths["sparse"], "--dense-index", paths["dense"],
           "--mock-script", paths["script"], *common]
    for argv in (
        ["build-index", "--collection", paths["collection"], "--out", paths["sparse"], *common],
        ["embed-index", "--collection", paths["collection"], "--out", paths["dense"], *common],
        ["crdg", *gen, "--out", paths["crdg"]],
        ["infer", *gen, "--out", paths["run"], "--per-query-dir", str(iters)],
    ):
        assert main(argv) == 0
    return paths


# Each case: the input to spoil, and the command line that reads it given
# the workspace, the spoiled input's path and an output path.
CASES = {
    "tsv-collection": ("collection", lambda ws, p, out: ["build-index", "--collection", p, "--out", out]),
    "jsonl-collection": ("jsonl-collection", lambda ws, p, out: ["build-index", "--collection", p, "--out", out]),
    "dataset": ("dataset", lambda ws, p, out: [
        "crdg", "--dataset", p, "--sparse-index", ws["sparse"], "--dense-index", ws["dense"],
        "--mock-script", ws["script"], "--config", ws["config"], "--out", out]),
    "qrels": ("qrels", lambda ws, p, out: ["evaluate", "--run", ws["run"], "--qrels", p, "--out", out]),
    "run": ("run", lambda ws, p, out: ["evaluate", "--run", p, "--qrels", ws["qrels"], "--out", out]),
    "fuse": ("iter1", lambda ws, p, out: ["fuse", p, ws["iter2"], "--config", ws["config"], "--out", out]),
    "crdg-output": ("crdg", lambda ws, p, out: ["analyze", "--crdg", p, "--out", out]),
    "crdg-resumed": ("crdg", lambda ws, p, out: [
        "crdg", "--dataset", ws["dataset"], "--sparse-index", ws["sparse"], "--dense-index", ws["dense"],
        "--mock-script", ws["script"], "--config", ws["config"], "--out", p]),
    "mock-script": ("script", lambda ws, p, out: [
        "crdg", "--dataset", ws["dataset"], "--sparse-index", ws["sparse"], "--dense-index", ws["dense"],
        "--mock-script", p, "--config", ws["config"], "--out", out]),
    "config": ("config", lambda ws, p, out: ["build-index", "--collection", ws["collection"], "--config", p,
                                             "--out", out]),
}


@st.composite
def spoiled(draw, data: bytes) -> bytes:
    """``data`` cut at any byte offset, or with one invalid UTF-8 byte inserted."""
    at = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:at]
    return data[:at] + bytes([draw(st.sampled_from(BAD_BYTES))]) + data[at:]


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_spoiled_input_is_read_or_rejected_never_a_crash(ws, tmp_path_factory, case):
    key, argv = CASES[case]
    data = Path(ws[key]).read_bytes()

    @hypothesis.settings(max_examples=11, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(drawn):
        work = tmp_path_factory.mktemp(case)
        path = work / Path(ws[key]).name
        path.write_bytes(drawn.draw(spoiled(data)))
        assert main(argv(ws, str(path), str(work / "out"))) in (0, 2)

    check()


@st.composite
def spoiled_run(draw, data: bytes) -> tuple[bytes, int]:
    """A valid run with one line spoiled: a column dropped, a non-finite
    score, or the docid of an earlier line of the same query. Returns the
    bytes and the number of the line that must be named."""
    lines = [line.split() for line in data.decode("utf-8").splitlines()]
    spoiler = draw(st.sampled_from(["column", "score", "repeat"]))
    if spoiler == "repeat":
        pairs = [(i, j) for j in range(len(lines)) for i in range(j) if lines[i][0] == lines[j][0]]
        first, at = draw(st.sampled_from(pairs))
        lines[at][2] = lines[first][2]
    else:
        at = draw(st.integers(0, len(lines) - 1))
        if spoiler == "column":
            del lines[at][draw(st.integers(0, 5))]
        else:
            lines[at][4] = draw(st.sampled_from(["nan", "-inf", "Infinity", "1e999"]))
    return "".join(" ".join(parts) + "\n" for parts in lines).encode("utf-8"), at + 1


@pytest.mark.parametrize("case", ["run", "fuse"])
def test_a_spoiled_run_line_is_a_data_error_naming_it(ws, tmp_path_factory, capsys, case):
    key, argv = CASES[case]
    data = Path(ws[key]).read_bytes()

    @hypothesis.settings(max_examples=15, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(drawn):
        spoiled_bytes, line_no = drawn.draw(spoiled_run(data))
        work = tmp_path_factory.mktemp(case)
        path = work / Path(ws[key]).name
        path.write_bytes(spoiled_bytes)
        assert main(argv(ws, str(path), str(work / "out"))) == 2
        assert f"{path}:{line_no}: " in capsys.readouterr().err

    check()

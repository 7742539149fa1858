"""Property: a spoiled CLI input is a data error (exit 2) or is read as the
shorter file it now is (exit 0), never a crash (exit 1)."""

from __future__ import annotations

from pathlib import Path

import pytest

from icr.cli import main
from icr.corpus import Passage, write_collection

from .conftest import build_cli_workspace, make_tier_corpus

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
    common = ["--config", paths["config"]]
    gen = ["--dataset", paths["dataset"], "--sparse-index", paths["sparse"], "--dense-index", paths["dense"],
           "--mock-script", paths["script"], *common]
    for argv in (
        ["build-index", "--collection", paths["collection"], "--out", paths["sparse"], *common],
        ["embed-index", "--collection", paths["collection"], "--out", paths["dense"], *common],
        ["crdg", *gen, "--out", paths["crdg"]],
        ["infer", *gen, "--out", paths["run"]],
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

"""Digest reuse between manifests, and ``icr verify``."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

import icr.dense_index as dense_index
import icr.manifest as manifest_mod
from icr.cli import main
from icr.manifest import RACY_MARGIN_NS, RunManifest, load_manifest, tree_digest

from .conftest import build_cli_workspace

BOGUS = "0" * 64


def _settle() -> None:
    """Wait until files written now are older than the racy margin."""
    time.sleep(3 * RACY_MARGIN_NS / 1e9)


def _produce(path: Path) -> str:
    """Write a producer's manifest for ``path`` after the racy margin has
    passed, as when hashing a large output takes that long."""
    _settle()
    m = RunManifest("produce")
    m.add_output(str(path))
    return m.write()


def _consume(path: Path, tmp_path: Path) -> str:
    """The digest a reading command records for ``path``."""
    m = RunManifest("consume")
    m.add_input(str(path))
    m.add_output(str(tmp_path / "consumer.out"))
    (tmp_path / "consumer.out").write_text("x", encoding="utf-8")
    return load_manifest(m.write())["inputs"][str(path)]


def _forge(manifest_path: str, **record) -> None:
    """Replace the recorded digest (and record fields) of the manifest's
    output, so a reused digest shows as ``BOGUS``."""
    m = load_manifest(manifest_path)
    (out,) = m["outputs"]
    m["outputs"][out] = BOGUS
    m["output_stats"][out].update(record)
    Path(manifest_path).write_text(json.dumps(m), encoding="utf-8")


def test_an_unchanged_input_reuses_the_recorded_digest(tmp_path, monkeypatch):
    data = tmp_path / "data.bin"
    data.write_bytes(b"abc" * 1000)
    _forge(_produce(data))
    hashed = []
    file_digest = manifest_mod.file_digest
    monkeypatch.setattr(manifest_mod, "file_digest", lambda p: hashed.append(p) or file_digest(p))
    assert _consume(data, tmp_path) == BOGUS
    assert str(data) not in hashed


def test_a_same_size_rewrite_with_mtime_restored_is_rehashed(tmp_path):
    data = tmp_path / "data.bin"
    data.write_bytes(b"abc" * 1000)
    manifest_path = _produce(data)
    recorded = load_manifest(manifest_path)["output_stats"][str(data)]["files"]["."]
    before = os.stat(data)
    data.write_bytes(b"xyz" * 1000)
    os.utime(data, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(data)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (before.st_size, before.st_mtime_ns, before.st_ino)
    assert after.st_ctime_ns != recorded[4]
    assert _consume(data, tmp_path) == tree_digest(str(data)) != load_manifest(manifest_path)["outputs"][str(data)]


def test_a_racy_record_is_rehashed(tmp_path):
    data = tmp_path / "data.bin"
    data.write_bytes(b"abc" * 1000)
    manifest_path = _produce(data)
    ctime = os.stat(data).st_ctime_ns
    # the hash ended less than the margin after the file's last change
    _forge(manifest_path, hashed_at_ns=ctime + RACY_MARGIN_NS - 1)
    assert _consume(data, tmp_path) == tree_digest(str(data))
    _forge(manifest_path, hashed_at_ns=ctime + RACY_MARGIN_NS)
    assert _consume(data, tmp_path) == BOGUS


def test_a_file_added_to_a_directory_input_is_rehashed(tmp_path):
    directory = tmp_path / "index"
    (directory / "sub").mkdir(parents=True)
    (directory / "a.bin").write_bytes(b"a" * 100)
    (directory / "sub" / "b.bin").write_bytes(b"b" * 100)
    manifest_path = _produce(directory)
    assert set(load_manifest(manifest_path)["output_stats"][str(directory)]["files"]) == {
        "a.bin", os.path.join("sub", "b.bin"),
    }
    _forge(manifest_path)
    assert _consume(directory, tmp_path) == BOGUS
    (directory / "sub" / "c.bin").write_bytes(b"")
    assert _consume(directory, tmp_path) == tree_digest(str(directory))


def test_an_output_that_changes_while_hashed_gets_no_record(tmp_path, monkeypatch):
    data = tmp_path / "data.bin"
    data.write_bytes(b"abc")
    file_digest = manifest_mod.file_digest

    def digest_then_append(path):
        digest = file_digest(path)
        with open(path, "ab") as fh:
            fh.write(b"more")
        return digest

    monkeypatch.setattr(manifest_mod, "file_digest", digest_then_append)
    m = RunManifest("produce")
    m.add_output(str(data))
    written = load_manifest(m.write())
    assert str(data) in written["outputs"] and written["output_stats"] == {}


@pytest.fixture()
def ws(tmp_path):
    paths = build_cli_workspace(tmp_path / "data")
    out = tmp_path / "out"
    out.mkdir()
    paths["out"] = out
    return paths


def test_prefdata_reuses_the_dense_index_digest_that_embed_index_recorded(ws, monkeypatch, capsys):
    sparse, dense, dcr = (str(ws["out"] / n) for n in ("sparse.idx.gz", "dense.idx", "dcr.jsonl"))
    cfg = ["--config", ws["config"]]
    build_dense_index = dense_index.build_dense_index

    def save_then_settle(*args, **kwargs):
        # hashing the vectors of a collection at benchmark scale takes
        # longer than the racy margin; the toy collection's take microseconds
        index = build_dense_index(*args, **kwargs)
        _settle()
        return index

    monkeypatch.setattr(dense_index, "build_dense_index", save_then_settle)
    assert main(["build-index", "--collection", ws["collection"], "--out", sparse, *cfg]) == 0
    assert main(["embed-index", "--collection", ws["collection"], "--out", dense, *cfg]) == 0
    idx = ["--sparse-index", sparse, "--dense-index", dense, "--mock-script", ws["script"]]
    assert main(["crdg", "--dataset", ws["dataset"], *idx, "--out", dcr, *cfg, "--seed", "0"]) == 0

    hashed = []
    file_digest = manifest_mod.file_digest
    monkeypatch.setattr(manifest_mod, "file_digest", lambda p: hashed.append(p) or file_digest(p))
    pref = str(ws["out"] / "pref.jsonl")
    assert main(["prefdata", "--crdg", dcr, "--dataset", ws["dataset"], *idx, "--out", pref, *cfg,
                 "--seed", "0"]) == 0
    capsys.readouterr()
    assert hashed and not [p for p in hashed if p.startswith(dense)]
    monkeypatch.undo()
    recorded = load_manifest(pref + ".manifest.json")
    assert recorded["inputs"] == {p: tree_digest(p) for p in recorded["inputs"]}
    assert recorded["outputs"] == {pref: tree_digest(pref)}


def test_verify_passes_an_unchanged_run_and_writes_no_manifest(ws, capsys):
    sparse = str(ws["out"] / "sparse.idx.gz")
    assert main(["build-index", "--collection", ws["collection"], "--out", sparse]) == 0
    capsys.readouterr()
    before = sorted(os.listdir(ws["out"]))
    assert main(["verify", sparse + ".manifest.json"]) == 0
    assert capsys.readouterr().out == f"verified 2 files -> {sparse}.manifest.json\n"
    assert sorted(os.listdir(ws["out"])) == before


def test_verify_prints_each_changed_or_missing_file_and_exits_2(ws, capsys):
    run = str(ws["out"] / "run.trec")
    Path(run).write_text("q Q0 a 1 1.0 r\n", encoding="utf-8")
    fused = str(ws["out"] / "fused.trec")
    assert main(["fuse", run, "--out", fused]) == 0
    capsys.readouterr()
    Path(fused).write_text("q Q0 b 1 1.0 ICR\n", encoding="utf-8")
    os.remove(run)
    assert main(["verify", fused + ".manifest.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"missing: {run}\nchanged: {fused}\n"
    assert captured.err == f"data error: {fused}.manifest.json: 2 of 2 files differ from their recorded digests\n"


def test_verify_rehashes_without_the_stat_record(ws, capsys):
    run = str(ws["out"] / "run.trec")
    Path(run).write_text("q Q0 a 1 1.0 r\n", encoding="utf-8")
    fused = str(ws["out"] / "fused.trec")
    assert main(["fuse", run, "--out", fused]) == 0
    capsys.readouterr()
    _settle()
    manifest_path = fused + ".manifest.json"
    m = load_manifest(manifest_path)
    m["output_stats"][fused]["hashed_at_ns"] = time.time_ns()  # a record that would be reused
    m["outputs"][fused] = BOGUS
    Path(manifest_path).write_text(json.dumps(m), encoding="utf-8")
    assert main(["verify", manifest_path]) == 2
    assert capsys.readouterr().out == f"changed: {fused}\n"


def test_verify_of_a_file_that_is_not_a_manifest_is_a_data_error(ws, capsys):
    path = ws["out"] / "x.manifest.json"
    for text in ("not json", "[1, 2]"):
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}: not a run manifest")


@pytest.mark.parametrize("section", ["inputs", "outputs"])
def test_verify_of_a_manifest_whose_section_is_not_an_object_is_a_data_error(ws, capsys, section):
    path = ws["out"] / "x.manifest.json"
    path.write_text(json.dumps({"command": "fuse", section: [str(path)]}), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {path}: not a run manifest ({section!r} is not an object)\n"


def test_the_manifest_records_the_flags_of_the_run(tmp_path, capsys):
    """Two fuse runs that differ only in --mode write the same bytes here
    (one list weighs 1 under rrf and prrf), so only the recorded command
    line tells them apart."""
    run, out = tmp_path / "one.trec", tmp_path / "fused.trec"
    run.write_text("q1 Q0 d1 1 2.0 ICR\nq1 Q0 d2 2 1.0 ICR\n", encoding="utf-8")
    manifests = {}
    for mode in ("rrf", "prrf"):
        argv = ["fuse", str(run), "--mode", mode, "--k", "10", "--out", str(out)]
        assert main(argv) == 0
        manifests[mode] = load_manifest(str(out) + ".manifest.json")
        assert manifests[mode]["argv"] == argv
    capsys.readouterr()
    assert manifests["rrf"]["outputs"] == manifests["prrf"]["outputs"]
    assert manifests["rrf"]["config"] == manifests["prrf"]["config"] == {}

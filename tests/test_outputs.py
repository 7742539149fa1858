"""All-or-nothing outputs: every writer replaces its file by one rename, so
an interrupted or repeated command never leaves a cut or stale output."""

from __future__ import annotations

import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import icr
import icr.cli as cli
import icr.crdg as crdg_mod
import icr.dense_index as dense_mod
import icr.manifest as manifest_mod
import icr.prefdata as prefdata_mod
import icr.ranking as ranking_mod
import icr.sftdata as sftdata_mod
import icr.sparse_index as sparse_mod
import icr.workers as workers_mod
from icr.cli import main
from icr.genclient import ScriptedMock
from icr.manifest import RACY_MARGIN_NS, load_manifest
from icr.ranking import RankedList, write_run

from .conftest import TEMPORARY_NAME, build_cli_workspace
from .support import write_mock_script

PREVIOUS = b"previous\n"


class Cut(Exception):
    """Raised part-way through writing an output."""


@pytest.fixture()
def ws(tmp_path):
    paths = build_cli_workspace(tmp_path / "data")
    paths["out"] = tmp_path / "out"
    paths["out"].mkdir()
    return paths


def _commands(ws) -> dict[str, list[str]]:
    """The chain, in order; each command's outputs sit in ``ws["out"]``."""
    out = ws["out"]
    o = {name: str(out / name) for name in ("sparse.idx.gz", "dense.idx", "dcr.jsonl", "pref.jsonl",
                                            "sft.jsonl", "run.trec", "iters", "fused.trec", "report.json")}
    cfg, seed = ["--config", ws["config"]], ["--seed", "42"]
    idx = ["--sparse-index", o["sparse.idx.gz"], "--dense-index", o["dense.idx"], "--mock-script", ws["script"]]
    data = ["--dataset", ws["dataset"]]
    return {
        "build-index": ["build-index", "--collection", ws["collection"], "--out", o["sparse.idx.gz"], *cfg],
        "embed-index": ["embed-index", "--collection", ws["collection"], "--out", o["dense.idx"], *cfg],
        "crdg": ["crdg", *data, *idx, "--out", o["dcr.jsonl"], *cfg, *seed],
        "prefdata": ["prefdata", "--crdg", o["dcr.jsonl"], *data, *idx, "--out", o["pref.jsonl"], *cfg, *seed],
        "sftdata": ["sftdata", "--crdg", o["dcr.jsonl"], *data, "--out", o["sft.jsonl"], *cfg, *seed],
        "infer": ["infer", *data, *idx, "--out", o["run.trec"], "--per-query-dir", o["iters"], *cfg, *seed],
        "fuse": ["fuse", str(out / "iters" / "iter_01.trec"), "--out", o["fused.trec"], *cfg],
        "evaluate": ["evaluate", "--run", o["run.trec"], "--qrels", ws["qrels"], "--out", o["report.json"], *cfg],
    }


def _run_chain(ws, capsys) -> dict[str, list[str]]:
    commands = _commands(ws)
    for argv in commands.values():
        assert main(argv) == 0, argv
    capsys.readouterr()
    return commands


def _cutting_open(name: str):
    """``open``, except that a file opened for writing whose name starts
    with ``name`` takes half of its first write(s) call and then raises Cut."""

    def cutting_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(file).startswith(name):
            write = fh.write

            def cut(data):
                write(data[: len(data) // 2])
                raise Cut(file)

            fh.write = cut
            fh.writelines = lambda lines: cut(lines[0][:0].join(lines))
        return fh

    return cutting_open


def _cut_sparse_members(monkeypatch) -> None:
    """The sparse index is a zip file: raise Cut as its third member is made."""
    to_planes, calls = sparse_mod._to_planes, []

    def cut(array):
        calls.append(1)
        if len(calls) == 3:
            raise Cut("sparse.idx.gz")
        return to_planes(array)

    monkeypatch.setattr(sparse_mod, "_to_planes", cut)


# (command, output under ws["out"], module whose writes are cut)
WRITERS = {
    "save_sparse_index": ("build-index", "sparse.idx.gz", None),
    "save_dense_index-meta": ("embed-index", "dense.idx/meta.json", dense_mod),
    "save_dense_index-id_rank": ("embed-index", "dense.idx/id_rank.npy", dense_mod),
    "save_dense_index-vectors": ("embed-index", "dense.idx/vectors.npy", dense_mod),
    "crdg-resume": ("crdg", "dcr.jsonl", crdg_mod),
    "prefdata": ("prefdata", "pref.jsonl", prefdata_mod),
    "sftdata": ("sftdata", "sft.jsonl", sftdata_mod),
    "manifest": ("sftdata", "sft.jsonl.manifest.json", manifest_mod),
    "emit_run": ("infer", "run.trec", ranking_mod),
    "emit_per_query_runs": ("infer", "iters/iter_01.trec", ranking_mod),
    "fuse": ("fuse", "fused.trec", workers_mod),
    "report": ("evaluate", "report.json", cli),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_cut_short_leaves_the_previous_file_and_no_temporary_file(ws, capsys, monkeypatch, writer):
    command, name, module = WRITERS[writer]
    argv = _run_chain(ws, capsys)[command]
    target = ws["out"] / name
    previous = PREVIOUS
    if command == "crdg":
        # crdg resumes from its own output, rewriting it without the error
        # record and then appending the samples it runs again
        previous = target.read_bytes().splitlines(keepends=True)[0] + b'{"sample_id":"s3","error":"x"}\n'
    target.write_bytes(previous)
    if module is None:
        _cut_sparse_members(monkeypatch)
    else:
        monkeypatch.setattr(module, "open", _cutting_open(os.path.basename(name)), raising=False)
    with pytest.raises(Cut):
        main(argv)
    assert target.read_bytes() == previous
    assert not [p for p in ws["out"].rglob("*") if TEMPORARY_NAME.search(p.name) or p.suffix in (".tmp", ".part")]


def test_per_query_runs_deeper_than_this_run_are_removed_and_nothing_else(ws, capsys):
    mock = ScriptedMock.from_jsonl(ws["script"])
    rewrites = " ".join(f"[Clarification] which {n}? [Rewrite] kelpie {'jackal ' * n}".strip() for n in range(1, 12))
    mock.add("trajectory", "Q: kelpie", rewrites)
    write_mock_script(mock, ws["script"])
    iters = ws["out"] / "iters"
    iters.mkdir()
    stale = ["iter_12.trec", "iter_20.trec", "iter_100.trec"]
    kept = ["iter_1.trec", "iter_012.trec", "iter_20.trec.bak", "notes.txt"]
    for name in stale + kept:
        (iters / name).write_text("s9 Q0 stale 1 1.0 ICR\n")
    _run_chain(ws, capsys)
    written = [f"iter_{i:02d}.trec" for i in range(1, 12)]
    assert sorted(os.listdir(iters)) == sorted(written + kept)
    assert all((iters / name).read_text() == "s9 Q0 stale 1 1.0 ICR\n" for name in kept)
    manifest = load_manifest(str(ws["out"] / "run.trec.manifest.json"))
    assert sorted(Path(p).name for p in manifest["outputs"]) == sorted(["run.trec"] + written)


def test_a_rerun_in_place_replaces_every_output_with_the_same_bytes(ws, capsys, monkeypatch):
    out = ws["out"]
    umask = os.umask(0o027)
    try:
        commands = _commands(ws)
        for argv in commands.values():
            assert main(argv) == 0, argv
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        before = {f: (out / f).read_bytes() for f in files}
        # hard links keep the old inodes in use, so no new file can get one
        for f in files:
            (out.parent / "before" / f).parent.mkdir(parents=True, exist_ok=True)
            os.link(out / f, out.parent / "before" / f)

        hashed = []
        save_dense_index, file_digest = dense_mod.save_dense_index, manifest_mod.file_digest

        def save_then_settle(index, path):
            save_dense_index(index, path)
            # as when the vectors take longer to hash than the racy margin
            time.sleep(3 * RACY_MARGIN_NS / 1e9)
            monkeypatch.setattr(manifest_mod, "file_digest", lambda p: hashed.append(p) or file_digest(p))

        monkeypatch.setattr(dense_mod, "save_dense_index", save_then_settle)
        for argv in commands.values():
            assert main(argv) == 0, argv
        capsys.readouterr()
    finally:
        os.umask(umask)
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
    manifests = [f for f in files if f.name.endswith(".manifest.json")]
    assert len(manifests) == len(commands)
    for f in files:
        assert f in manifests or (out / f).read_bytes() == before[f], f
        assert not os.path.samefile(out / f, out.parent / "before" / f), f
        assert stat.S_IMODE(os.stat(out / f).st_mode) == 0o640, f
    dense = str(out / "dense.idx")
    # embed-index hashes its own output; no later command hashes it again
    assert [p for p in hashed if p.startswith(dense)] == [os.path.join(dense, n) for n in
                                                          ("id_rank.npy", "meta.json", "vectors.npy")]
    for f in manifests:
        old = load_manifest(str(out.parent / "before" / f))
        assert load_manifest(str(out / f))["outputs"] == old["outputs"], f
        assert main(["verify", str(out / f)]) == 0, f
    capsys.readouterr()


def test_main_restores_the_sigterm_handler(ws, capsys):
    before = signal.getsignal(signal.SIGTERM)
    assert main(_commands(ws)["build-index"]) == 0
    assert signal.getsignal(signal.SIGTERM) is before
    capsys.readouterr()


# Fuses one run on two processes, and sends itself SIGTERM once the forked
# worker has written its shard and been reaped.
TERMINATED_FUSE = """
import os, signal, sys
from icr import cli, workers
workers.usable_cpus = lambda: 2
in_workers = workers._in_workers
def then_terminate(work, blocks):
    parts = in_workers(work, blocks)
    assert len(blocks) == 2 and parts[-1] is not None
    os.kill(os.getpid(), signal.SIGTERM)
    return parts
workers._in_workers = then_terminate
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fuse forks its workers")
@pytest.mark.parametrize("earlier", [True, False], ids=["replacing", "new"])
def test_sigterm_during_fuse_exits_143_and_leaves_the_output_as_it_was(tmp_path, earlier):
    run = tmp_path / "iter_01.trec"
    write_run([RankedList(f"q{n}", [(f"p{n}", 1.0), ("p", 0.5)]) for n in range(10)], str(run))
    out = tmp_path / "fused.trec"
    if earlier:
        out.write_bytes(PREVIOUS)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(icr.__file__)))
    done = subprocess.run([sys.executable, "-c", TERMINATED_FUSE, "fuse", str(run), "--out", str(out)],
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == 143, done.stderr
    assert sorted(os.listdir(tmp_path)) == ["fused.trec"] * earlier + ["iter_01.trec"]
    if earlier:
        assert out.read_bytes() == PREVIOUS

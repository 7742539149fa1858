"""``icr fuse`` on forked workers: the worker count, forced through
``workers.usable_cpus``, changes no byte, no error and leaves nothing
behind."""

from __future__ import annotations

import io
import os
import random
from pathlib import Path

import pytest

from icr import cli, workers
from icr.manifest import load_manifest
from icr.ranking import RankedList, Run, read_run, write_run

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")

QUERIES = [f"q{n}" for n in range(10)]


def _ragged_runs(root: Path) -> list[str]:
    """Three iteration runs: ragged depths, some queries missing from the
    early runs or ending early, and shared passages with tied scores."""
    rng = random.Random(16)
    members = [QUERIES[:6], QUERIES[2:8] + ["q9"], ["q7", "q0", "q9", "q8", "q4"]]
    paths = []
    for i, qids in enumerate(members, 1):
        lists = []
        for qid in qids:
            pids = rng.sample([f"p{n}" for n in range(60)], rng.randint(1, 40))
            lists.append(RankedList(qid, [(pid, float(rng.randint(0, 5))) for pid in pids]))
        path = root / f"iter_{i:02d}.trec"
        write_run(lists, str(path))
        paths.append(str(path))
    return paths


def _fuse(monkeypatch, cpus: int, argv: list[str]) -> int:
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    return cli.main(["fuse", *argv])


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pids of every child forked while the test runs."""
    pids: list[int] = []
    fork = os.fork

    def recording_fork() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("mode", ["rrf", "prrf", "final_only"])
def test_forced_workers_fuse_the_bytes_of_one(tmp_path, monkeypatch, capsys, forked, mode):
    paths = _ragged_runs(tmp_path)
    outputs = {}
    for cpus in (1, 2, 3, 16):  # 16 is more workers than files or queries
        out = tmp_path / f"fused.{cpus}.trec"
        assert _fuse(monkeypatch, cpus, [*paths, "--mode", mode, "--depth", "25", "--out", str(out)]) == 0
        manifest = load_manifest(f"{out}.manifest.json")
        outputs[cpus] = out.read_bytes(), manifest["inputs"], list(manifest["outputs"].values())
        assert capsys.readouterr().out == f"fused 3 runs over 10 queries -> {out}\n"
    assert outputs[1][0].count(b"\n") > 100
    assert all(got == outputs[1] for got in outputs.values())
    assert len(forked) == (1 + 1) + (2 + 2) + (2 + 9)  # readers, then writers
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == sorted(
        [Path(p).name for p in paths] + [f"fused.{c}.trec{s}" for c in (1, 2, 3, 16) for s in ("", ".manifest.json")]
    )


def test_fuse_without_fork_runs_in_one_process(tmp_path, monkeypatch):
    paths = _ragged_runs(tmp_path)
    assert _fuse(monkeypatch, 1, [*paths, "--out", str(tmp_path / "one.trec")]) == 0
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert workers.usable_cpus() == 1
    assert cli.main(["fuse", *paths, "--out", str(tmp_path / "nofork.trec")]) == 0
    assert (tmp_path / "nofork.trec").read_bytes() == (tmp_path / "one.trec").read_bytes()


def _spoil(path: str, line_no: int) -> None:
    lines = Path(path).read_text().splitlines(keepends=True)
    lines[line_no - 1] = lines[line_no - 1].replace(" Q0 ", " Q0 extra ")
    Path(path).write_text("".join(lines))


@pytest.mark.parametrize("spoiled", [[3], [1, 2], [2, 3]], ids=["last", "worker-first", "here-first"])
def test_a_malformed_run_gives_the_error_of_one_process(tmp_path, monkeypatch, capsys, forked, spoiled):
    paths = _ragged_runs(tmp_path)
    for i in spoiled:
        _spoil(paths[i - 1], 4)
    # the largest file, iter_02, is read here and each worker reads one
    assert workers._shares_by_size(paths, 3) == [[1], [0], [2]]
    results = {}
    for cpus in (1, 3):
        assert _fuse(monkeypatch, cpus, [*paths, "--out", str(tmp_path / "fused.trec")]) == 2
        results[cpus] = capsys.readouterr()
    first = paths[spoiled[0] - 1]
    assert results[3] == results[1]
    assert results[3].err == f"data error: {first}:4: expected 6 columns: qid Q0 docid rank score tag\n"
    assert len(forked) == 2
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == [Path(p).name for p in paths]


@pytest.mark.parametrize("directory", [True, False], ids=["out-is-a-directory", "missing-directory"])
def test_a_write_error_leaves_no_worker_and_no_temporary_file(tmp_path, monkeypatch, capsys, forked, directory):
    paths = _ragged_runs(tmp_path)
    if directory:
        # opening it for writing fails after the writers have forked
        out, error, writers = tmp_path / "out", "[Errno 21] Is a directory", 3
        out.mkdir()
    else:
        # no temporary file can be made beside it, so this process writes alone
        out, error, writers = tmp_path / "missing" / "out", "[Errno 2] No such file or directory", 0
    results = {}
    for cpus in (1, 4):
        assert _fuse(monkeypatch, cpus, [*paths, "--out", str(out)]) == 2
        results[cpus] = capsys.readouterr().err
    assert results[4] == results[1] == f"data error: {error}: '{out}'\n"
    assert len(forked) == 2 + writers
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == sorted([Path(p).name for p in paths] + ["out"] * directory)


def test_ctrl_c_kills_and_reaps_the_workers(tmp_path, monkeypatch, forked):
    paths = _ragged_runs(tmp_path)
    out = str(tmp_path / "fused.trec")
    parent = os.getpid()

    def interrupted(lists, path):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        write_run(lists, path)

    monkeypatch.setattr(cli, "write_run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _fuse(monkeypatch, 4, [*paths, "--out", out])
    assert len(forked) == 2 + 3
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == [Path(p).name for p in paths]


def test_failed_workers_are_redone_in_this_process(tmp_path, monkeypatch, forked):
    paths = _ragged_runs(tmp_path)
    assert _fuse(monkeypatch, 1, [*paths, "--out", str(tmp_path / "one.trec")]) == 0
    parent = os.getpid()

    def fail_in_workers(real):
        def wrapped(*args):
            if os.getpid() != parent:
                raise OSError("worker failed")
            return real(*args)

        return wrapped

    # every reader fails to send, then every writer fails to write
    monkeypatch.setattr(Run, "dump", fail_in_workers(Run.dump))
    monkeypatch.setattr(cli, "write_run", fail_in_workers(write_run))
    assert _fuse(monkeypatch, 3, [*paths, "--out", str(tmp_path / "redone.trec")]) == 0
    assert (tmp_path / "redone.trec").read_bytes() == (tmp_path / "one.trec").read_bytes()
    assert len(forked) == 2 + 2
    _assert_reaped(forked)


def test_a_run_crosses_a_stream_unchanged(tmp_path):
    paths = _ragged_runs(tmp_path)
    empty = tmp_path / "empty.trec"
    empty.write_text("")
    buffer = io.BytesIO()
    runs = [read_run(p) for p in [*paths, str(empty)]]
    for run in runs:
        run.dump(buffer)
    end = buffer.tell()
    buffer.seek(0)
    for run in runs:
        got = Run.load(buffer)
        assert list(got) == list(run) and all(got[qid] == run[qid] for qid in run)
    assert buffer.tell() == end
    one = io.BytesIO()
    runs[0].dump(one)
    for cut in (0, 5, len(one.getvalue()) - 1):
        with pytest.raises(EOFError):
            Run.load(io.BytesIO(one.getvalue()[:cut]))

"""``icr fuse`` and ``icr evaluate`` on forked workers: the worker count,
forced through ``workers.usable_cpus``, changes no byte, no error and leaves
nothing behind."""

from __future__ import annotations

import io
import json
import os
import random
import signal
from pathlib import Path

import pytest

from icr import cli, workers
from icr.evaluation import evaluate_run
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


def _ragged_eval(root: Path, split: bool = False) -> tuple[str, str]:
    """A run over 12 queries of 1 to 30 lines. Odd queries end their lines
    with CRLF; even ones end with a blank line, and q04 has blank lines
    inside it too. q00, q03, q06 and q09 are never judged, and the qrels
    judge q90 and q91, which are not in the run. With ``split``, q01's last
    line is moved to the end of the file."""
    rng = random.Random(19)
    blocks, qrels = [], []
    for n in range(12):
        qid = f"q{n:02d}"
        pids = rng.sample([f"p{i}" for i in range(80)], rng.randint(1, 30))
        end = "\r\n" if n % 2 else "\n"
        lines = [f"{qid} Q0 {pid} {rank} {float(rng.randint(0, 9))!r} T{end}" for rank, pid in enumerate(pids, 1)]
        if n == 4:
            lines[1:1] = ["\n", "  \r\n"]
        blocks.append(lines + ([] if n % 2 else ["\n"]))
        if n % 3:
            qrels += [f"{qid} 0 {pid} {rng.randint(0, 3)}\n" for pid in rng.sample(pids, min(3, len(pids)))]
    qrels += ["q90 0 p1 2\n", "q91 0 p2 0\n"]
    lines = [line for block in blocks for line in block]
    if split:
        assert len(blocks[1]) > 1
        lines.append(lines.pop(max(i for i, line in enumerate(lines) if line.startswith("q01 "))))
    run, qrels_path = root / "run.trec", root / "qrels.txt"
    run.write_bytes("".join(lines).encode())
    qrels_path.write_text("".join(qrels))
    return str(run), str(qrels_path)


def _evaluate(monkeypatch, cpus: int, run: str, qrels: str, out: str) -> int:
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    return cli.main(["evaluate", "--run", run, "--qrels", qrels, "--out", out])


@pytest.fixture
def whole_file(monkeypatch) -> list[list[str]]:
    """The queries of each run that ``evaluate_file`` scored whole, in one
    process."""
    runs: list[list[str]] = []

    def recording(run, qrels):
        runs.append(list(run))
        return evaluate_run(run, qrels)

    monkeypatch.setattr(workers, "evaluate_run", recording)
    return runs


def _evaluations(tmp_path, monkeypatch, capsys, run, qrels, counts=(1, 2, 3, 16)) -> dict:
    """report.json, stdout and the manifest's digests at each process count."""
    results = {}
    for cpus in counts:
        out = tmp_path / f"report.{cpus}.json"
        assert _evaluate(monkeypatch, cpus, run, qrels, str(out)) == 0
        manifest = load_manifest(f"{out}.manifest.json")
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        results[cpus] = out.read_bytes(), stdout, manifest["inputs"], list(manifest["outputs"].values())
    return results


def test_evaluate_cuts_fall_where_queries_start(tmp_path):
    run, _ = _ragged_eval(tmp_path)
    data = Path(run).read_bytes()
    assert workers._query_cuts(run, 1) == [0, len(data)]
    cuts = workers._query_cuts(run, 16)
    assert cuts[0] == 0 and cuts[-1] == len(data) and cuts == sorted(set(cuts))
    assert 4 < len(cuts) - 1 <= 12
    for cut in cuts[1:-1]:
        before = [line.split()[0] for line in data[:cut].splitlines() if line.split()]
        assert data[cut:].split()[0] != before[-1]
    # cut points come after a CRLF line end and after a blank line
    assert any(data[:cut].endswith(b"T\r\n") for cut in cuts)
    assert any(data[:cut].endswith(b"\n\n") for cut in cuts)
    missing = tmp_path / "missing.trec"
    assert workers._query_cuts(str(missing), 4) == [0, 0]
    # a directory cannot be read: one range, whose read_run raises
    assert workers._query_cuts(str(tmp_path), 4) == [0, os.path.getsize(tmp_path)]


@pytest.mark.parametrize("split", [False, True], ids=["contiguous", "split-query"])
def test_forced_workers_evaluate_to_the_bytes_of_one(tmp_path, monkeypatch, capsys, forked, whole_file, split):
    run, qrels = _ragged_eval(tmp_path, split)
    results = _evaluations(tmp_path, monkeypatch, capsys, run, qrels)
    assert all(got == results[1] for got in results.values())
    report = json.loads(results[1][0])
    assert (report["num_samples"], report["missing_from_run"]) == (14, 2)
    assert report["degenerate_count"] >= 5  # the 4 unjudged queries and q91
    assert results[1][1] == "wrote evaluate report over 14 samples -> <out>\n"
    # a query split over two ranges is scored with the whole file at once
    assert len(whole_file) == (4 if split else 1)
    assert len(forked) == sum(len(workers._query_cuts(run, cpus)) - 2 for cpus in (2, 3, 16))
    _assert_reaped(forked)


@pytest.mark.parametrize("queries", [0, 1, 2], ids=["empty-run", "one-query", "two-queries"])
def test_more_workers_than_queries_evaluate_to_the_bytes_of_one(tmp_path, monkeypatch, capsys, forked, queries):
    run, qrels = tmp_path / "run.trec", tmp_path / "qrels.txt"
    write_run([RankedList(f"q{n}", [(f"p{n}", 1.0), ("p", 0.5)]) for n in range(queries)], str(run))
    qrels.write_text("q0 0 p0 1\nq7 0 p 1\n")
    results = _evaluations(tmp_path, monkeypatch, capsys, str(run), str(qrels))
    assert all(got == results[1] for got in results.values())
    assert json.loads(results[1][0])["num_samples"] == queries + 1 + (queries == 0)
    assert len(forked) == sum(len(workers._query_cuts(str(run), cpus)) - 2 for cpus in (2, 3, 16))
    assert len(workers._query_cuts(str(run), 16)) == 2 + (queries == 2)
    _assert_reaped(forked)


def test_evaluate_without_fork_runs_in_one_process(tmp_path, monkeypatch, capsys, whole_file):
    run, qrels = _ragged_eval(tmp_path)
    assert _evaluate(monkeypatch, 3, run, qrels, str(tmp_path / "three.json")) == 0
    assert whole_file == []
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert workers.usable_cpus() == 1
    assert cli.main(["evaluate", "--run", run, "--qrels", qrels, "--out", str(tmp_path / "one.json")]) == 0
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "three.json").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("spoiled", ["first", "last", "both"])
def test_a_malformed_evaluate_run_gives_the_error_of_one_process(tmp_path, monkeypatch, capsys, forked, spoiled):
    run, qrels = _ragged_eval(tmp_path)
    lines = Path(run).read_bytes().splitlines(keepends=True)
    first, last = 2, len(lines) - 1  # line numbers
    for line_no in {"first": [first], "last": [last], "both": [first, last]}[spoiled]:
        lines[line_no - 1] = lines[line_no - 1].replace(b" Q0 ", b" Q0 extra ")
    Path(run).write_bytes(b"".join(lines))
    cuts = workers._query_cuts(run, 3)
    assert len(cuts) == 4 and sum(map(len, lines[: first])) < cuts[1] and cuts[2] < sum(map(len, lines[: last - 1]))
    results = {}
    for cpus in (1, 3):
        assert _evaluate(monkeypatch, cpus, run, qrels, str(tmp_path / "report.json")) == 2
        results[cpus] = capsys.readouterr()
    bad = last if spoiled == "last" else first
    assert results[3] == results[1]
    assert results[3].err == f"data error: {run}:{bad}: expected 6 columns: qid Q0 docid rank score tag\n"
    assert len(forked) == 2
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == ["qrels.txt", "run.trec"]


def test_a_bad_run_is_reported_before_bad_qrels(tmp_path, monkeypatch, capsys):
    run, qrels = _ragged_eval(tmp_path)
    Path(qrels).write_text("q1 0 p1\n")
    assert _evaluate(monkeypatch, 3, run, qrels, str(tmp_path / "report.json")) == 2
    assert capsys.readouterr().err == f"data error: {qrels}:1: expected 4 columns: qid 0 docid grade\n"
    Path(run).write_text("q1 Q0 p1 1 x T\n")
    assert _evaluate(monkeypatch, 3, run, qrels, str(tmp_path / "report.json")) == 2
    assert capsys.readouterr().err.startswith(f"data error: {run}:1: bad rank/score: ")


def test_failed_evaluate_workers_are_redone_in_this_process(tmp_path, monkeypatch, capsys, forked, whole_file):
    run, qrels = _ragged_eval(tmp_path)
    assert _evaluate(monkeypatch, 1, run, qrels, str(tmp_path / "one.json")) == 0
    parent = os.getpid()
    score_queries = workers.score_queries

    def fail_in_workers(run, qrels):
        if os.getpid() != parent:
            raise OSError("worker failed")
        return score_queries(run, qrels)

    monkeypatch.setattr(workers, "score_queries", fail_in_workers)
    assert _evaluate(monkeypatch, 3, run, qrels, str(tmp_path / "redone.json")) == 0
    assert (tmp_path / "redone.json").read_bytes() == (tmp_path / "one.json").read_bytes()
    assert len(whole_file) == 2
    assert len(forked) == 2
    _assert_reaped(forked)
    capsys.readouterr()


@pytest.mark.parametrize("stop", ["ctrl-c", "sigterm"])
def test_an_interrupted_evaluate_kills_and_reaps_the_workers(tmp_path, monkeypatch, forked, stop):
    run, qrels = _ragged_eval(tmp_path)
    parent = os.getpid()
    score_queries = workers.score_queries

    def interrupted(run, qrels):
        if os.getpid() == parent:
            if stop == "ctrl-c":
                raise KeyboardInterrupt
            os.kill(parent, signal.SIGTERM)
        return score_queries(run, qrels)

    monkeypatch.setattr(workers, "score_queries", interrupted)
    with pytest.raises(KeyboardInterrupt if stop == "ctrl-c" else SystemExit) as stopped:
        _evaluate(monkeypatch, 4, run, qrels, str(tmp_path / "report.json"))
    if stop == "sigterm":
        assert stopped.value.code == 128 + signal.SIGTERM
    assert len(forked) == 3
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == ["qrels.txt", "run.trec"]

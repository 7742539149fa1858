"""``icr fuse`` and ``icr evaluate`` on forked workers: the worker count,
forced through ``workers.usable_cpus``, changes no byte, no error and leaves
nothing behind."""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
from pathlib import Path

import pytest

from icr import cli, ranking, workers
from icr.evaluation import evaluate_run
from icr.manifest import load_manifest
from icr.ranking import RankedList, read_run, write_run

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")

QUERIES = [f"q{n}" for n in range(10)]
PIDS = [f"d{n}" for n in range(12)]


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


def _nested_runs(root: Path) -> list[str]:
    """Four iteration runs nested as ``infer --per-query-dir`` writes them:
    each holds the queries of the one before that went on iterating, in the
    same order. The deepest holds one query, q14, which is also the query
    that the two-process cuts fall at, so that file is cut at offset 0."""
    rng = random.Random(20)
    qids = [f"q{n:02d}" for n in range(24)]
    paths = []
    for i, members in enumerate([qids, qids[4:], qids[6::4], ["q14"]], 1):
        lists = []
        for qid in members:
            pids = rng.sample([f"p{n}" for n in range(60)], rng.randint(5, 30))
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


@pytest.fixture
def reads(monkeypatch) -> list[tuple]:
    """The arguments of every ``read_run`` call that ``workers`` makes in
    this process."""
    calls: list[tuple] = []

    def recording(*args):
        calls.append(args)
        return read_run(*args)

    monkeypatch.setattr(workers, "read_run", recording)
    return calls


def _assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _ranges(paths: list[str], cpus: int) -> int:
    first = workers._shared_cuts(paths, cpus)[0]
    return 1 if first is None else len(first) - 1


@pytest.mark.parametrize("mode", ["rrf", "prrf", "final_only"])
def test_forced_workers_fuse_the_bytes_of_one(tmp_path, monkeypatch, capsys, forked, mode):
    outputs = {}
    for name, runs in (("nested", _nested_runs), ("ragged", _ragged_runs)):
        (tmp_path / name).mkdir()
        paths = runs(tmp_path / name)
        for cpus in (1, 2, 3, 16):  # 16 is more processes than some files have queries
            out = tmp_path / name / f"fused.{cpus}.trec"
            assert _fuse(monkeypatch, cpus, [*paths, "--mode", mode, "--depth", "25", "--out", str(out)]) == 0
            manifest = load_manifest(f"{out}.manifest.json")
            outputs[name, cpus] = out.read_bytes(), manifest["inputs"], list(manifest["outputs"].values())
            stdout = capsys.readouterr().out
            assert stdout == f"fused {len(paths)} runs over {24 if name == 'nested' else 10} queries -> {out}\n"
        assert outputs[name, 1][0].count(b"\n") > 100
        assert all(outputs[name, cpus] == outputs[name, 1] for cpus in (2, 3, 16))
        assert sorted(os.listdir(tmp_path / name)) == sorted(
            [Path(p).name for p in paths] + [f"fused.{c}.trec{s}" for c in (1, 2, 3, 16) for s in ("", ".manifest.json")]
        )
    _assert_reaped(forked)


def test_nested_runs_are_fused_in_ranges_of_whole_queries(tmp_path, monkeypatch, capsys, forked, reads):
    paths = _nested_runs(tmp_path)
    # the deepest run is cut at offset 0 on two processes and read whole on three
    assert [workers._shared_cuts(paths, 2)[3][1], workers._shared_cuts(paths, 3)[3]] == [0, None]
    for cpus in (2, 3, 16):
        n = _ranges(paths, cpus)
        assert n == cpus
        del forked[:], reads[:]
        assert _fuse(monkeypatch, cpus, [*paths, "--out", str(tmp_path / "fused.trec")]) == 0
        assert len(forked) == n - 1
        # each file is read once here: its first range, or whole if it is not cut
        cuts = workers._shared_cuts(paths, cpus)
        assert reads == [(p,) if c is None else (p, c[0], c[1]) for p, c in zip(paths, cuts)]
        _assert_reaped(forked)
    capsys.readouterr()


def test_a_boundary_is_the_first_line_that_starts_with_its_query(tmp_path, monkeypatch):
    run = tmp_path / "run.trec"
    data = b"s1\tQ0 p 1 1.0 T\r\ns10 Q0 p 1 1.0 T\n s2 Q0 p 1 1.0 T\ns2 Q0 p 2 1.0 T\ns1 Q0 q 2 1.0 T\n"
    run.write_bytes(data)
    last = data.rindex(b"s1 ")
    for block in (1, 2, 3, 5, 1 << 20):  # a query id can straddle two reads
        monkeypatch.setattr(workers, "_BLOCK", block)
        with open(run, "rb") as fh:
            got = [workers._first_line(fh, qid, 0) for qid in (b"s1", b"s10", b"s2", b"s3", b"Q0")]
            # the search starts at the line it is given
            assert [workers._first_line(fh, qid, got[1]) for qid in (b"s1", b"s10")] == [last, got[1]]
        # a line that starts with a blank starts with no query
        assert got == [0, data.index(b"s10"), data.index(b"\ns2 ") + 1, -1, -1]
    assert workers._cuts_at(str(run), [b"s10", b"s1"]) == [0, got[1], last, len(data)]
    assert workers._cuts_at(str(run), [b"s10", b"s2"]) == [0, got[1], got[2], len(data)]
    assert workers._cuts_at(str(run), [b"s1", b"s2"]) == [0, 0, got[2], len(data)]
    for path, qids in [(run, [b"s2", b"s10"]), (run, [b"s10", b"s3"]), (tmp_path / "missing", [b"s1"])]:
        assert workers._cuts_at(str(path), qids) is None
    empty = tmp_path / "empty.trec"
    empty.write_bytes(b"")
    assert workers._cuts_at(str(empty), [b"s1"]) is None
    # a file in another query order holds the boundaries out of order
    paths = _nested_runs(tmp_path)
    lines = Path(paths[1]).read_bytes().splitlines(keepends=True)
    Path(paths[1]).write_bytes(b"".join(sorted(lines, key=lambda line: line.split()[0], reverse=True)))
    assert workers._shared_cuts(paths, 3)[1] is None
    assert all(cuts is not None for cuts in workers._shared_cuts(paths, 3)[:3:2])


def test_runs_that_are_not_nested_are_fused_in_one_process(tmp_path, monkeypatch, capsys, forked, reads):
    paths = _ragged_runs(tmp_path)
    for cpus in (2, 3, 4, 16):
        del reads[:]
        assert _fuse(monkeypatch, cpus, [*paths, "--out", str(tmp_path / "fused.trec")]) == 0
        assert reads[-len(paths) :] == [(p,) for p in paths]
    # on two and four processes every file is cut, but the ranges do not
    # hold whole queries of the first file, so they are read again whole
    assert [_ranges(paths, cpus) for cpus in (2, 3, 4, 16)] == [2, 1, 4, 1]
    assert len(forked) == 1 + 3
    _assert_reaped(forked)
    capsys.readouterr()


def test_fuse_without_fork_runs_in_one_process(tmp_path, monkeypatch):
    paths = _nested_runs(tmp_path)
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


@pytest.mark.parametrize(
    "spoiled",
    [[(4, 2)], [(1, -1), (2, 4)], [(1, 4), (2, -1)]],
    ids=["last", "worker-first", "here-first"],
)
def test_a_malformed_run_gives_the_error_of_one_process(tmp_path, monkeypatch, capsys, forked, spoiled):
    paths = _nested_runs(tmp_path)
    # line 4 is in this process's range and the last line (-1) in a
    # worker's; the last run is read whole by every range
    cuts = workers._shared_cuts(paths, 3)
    assert cuts[3] is None
    lines = [Path(p).read_bytes().splitlines(keepends=True) for p in paths]
    for i in (0, 1):
        assert sum(map(len, lines[i][:4])) < cuts[i][1] and cuts[i][2] < sum(map(len, lines[i][:-1]))
    spoiled = [(i, line_no % (len(lines[i - 1]) + 1)) for i, line_no in spoiled]
    for i, line_no in spoiled:
        _spoil(paths[i - 1], line_no)
    results = {}
    for cpus in (1, 3):
        assert _fuse(monkeypatch, cpus, [*paths, "--out", str(tmp_path / "fused.trec")]) == 2
        results[cpus] = capsys.readouterr()
    first, line_no = paths[spoiled[0][0] - 1], spoiled[0][1]
    assert results[3] == results[1]
    assert results[3].err == f"data error: {first}:{line_no}: expected 6 columns: qid Q0 docid rank score tag\n"
    assert len(forked) == 2
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == [Path(p).name for p in paths]


@pytest.mark.parametrize("directory", [True, False], ids=["out-is-a-directory", "missing-directory"])
def test_a_write_error_leaves_no_worker_and_no_temporary_file(tmp_path, monkeypatch, capsys, forked, directory):
    paths = _nested_runs(tmp_path)
    if directory:
        # putting the output in place fails after every range is written
        out, error, workers_forked = tmp_path / "out", "[Errno 21] Is a directory", 3
        out.mkdir()
    else:
        # no temporary file can be made beside it, so nothing is read
        out, error, workers_forked = tmp_path / "missing" / "out", "[Errno 2] No such file or directory", 0
    results = {}
    for cpus in (1, 4):
        assert _fuse(monkeypatch, cpus, [*paths, "--out", str(out)]) == 2
        results[cpus] = capsys.readouterr().err
    assert results[4] == results[1] == f"data error: {error}: '{out}'\n"
    assert len(forked) == workers_forked
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == sorted([Path(p).name for p in paths] + ["out"] * directory)


def test_ctrl_c_kills_and_reaps_the_workers(tmp_path, monkeypatch, forked):
    paths = _nested_runs(tmp_path)
    out = str(tmp_path / "fused.trec")
    parent = os.getpid()
    for stop in ("ctrl-c", "sigterm"):

        def interrupted(lists, path):
            if os.getpid() == parent:
                if stop == "ctrl-c":
                    raise KeyboardInterrupt
                os.kill(parent, signal.SIGTERM)
            write_run(lists, path)

        monkeypatch.setattr(ranking, "write_run", interrupted)
        with pytest.raises(KeyboardInterrupt if stop == "ctrl-c" else SystemExit) as stopped:
            _fuse(monkeypatch, 4, [*paths, "--out", out])
        if stop == "sigterm":
            assert stopped.value.code == 128 + signal.SIGTERM
    assert len(forked) == 2 * 3
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == [Path(p).name for p in paths]


def test_failed_workers_are_redone_in_this_process(tmp_path, monkeypatch, forked, reads):
    paths = _nested_runs(tmp_path)
    assert _fuse(monkeypatch, 1, [*paths, "--out", str(tmp_path / "one.trec")]) == 0
    parent = os.getpid()

    def fail_in_workers(lists, path):
        if os.getpid() != parent:
            raise OSError("worker failed")
        write_run(lists, path)

    # every worker fails to write its shard
    monkeypatch.setattr(ranking, "write_run", fail_in_workers)
    del reads[:]
    assert _fuse(monkeypatch, 3, [*paths, "--out", str(tmp_path / "redone.trec")]) == 0
    assert (tmp_path / "redone.trec").read_bytes() == (tmp_path / "one.trec").read_bytes()
    assert reads[-len(paths) :] == [(p,) for p in paths]
    assert len(forked) == 2
    _assert_reaped(forked)
    assert sorted(os.listdir(tmp_path)) == sorted(
        [Path(p).name for p in paths] + [f"{name}.trec{s}" for name in ("one", "redone") for s in ("", ".manifest.json")]
    )


def _iteration_runs(draw) -> list[bytes]:
    """Run files nested as ``infer --per-query-dir`` writes them, with tied
    scores, sometimes a deepest file holding one query, and sometimes: an
    empty file, a query missing from the first file, a file in another
    query order, a query whose lines are split within a file, tab
    separators, CRLF line ends or one malformed line."""
    from hypothesis import strategies as st

    qids = [f"s{n}" for n in range(draw(st.integers(1, 12)))]  # s1 is a prefix of s10
    depths = [draw(st.integers(1, 3)) for _ in qids]
    if draw(st.booleans()):
        depths[draw(st.integers(0, len(qids) - 1))] = 4
    ranked = st.lists(st.tuples(st.sampled_from(PIDS), st.sampled_from([0.0, 1.0, 2.0])), min_size=1, max_size=9,
                      unique_by=lambda entry: entry[0])
    files = [[(qid, draw(ranked)) for qid, depth in zip(qids, depths) if depth > i] for i in range(max(depths))]
    if draw(st.booleans()):
        files.insert(draw(st.integers(1, len(files))), [])
    if len(files) > 1 and draw(st.booleans()):
        files[-1].insert(draw(st.integers(0, len(files[-1]))), ("s99", [("d1", 1.0)]))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(files) - 1))
        files[i] = draw(st.permutations(files[i]))
    sep, end = draw(st.sampled_from([" ", "\t"])), draw(st.sampled_from(["\n", "\r\n"]))
    texts = [
        [sep.join([qid, "Q0", pid, str(rank), repr(score), "T"]) + end for qid, entries in file
         for rank, (pid, score) in enumerate(entries, 1)]
        for file in files
    ]
    lines = draw(st.sampled_from(texts))
    if len(lines) > 1 and draw(st.booleans()):
        lines.append(lines.pop(draw(st.integers(0, len(lines) - 2))))
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].replace("Q0", "Q0 extra")
    return ["".join(text).encode() for text in texts]


def test_forced_workers_fuse_drawn_runs_as_one_process(tmp_path_factory, monkeypatch, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default = workers.BUDGET

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        st.composite(_iteration_runs)(), st.sampled_from(["rrf", "prrf", "final_only"]), st.integers(1, 6), _budgets(st)
    )
    def check(texts, mode, depth, budget):
        root = tmp_path_factory.mktemp("fuse")
        paths = [str(root / f"iter_{i:02d}.trec") for i in range(1, len(texts) + 1)]
        for path, text in zip(paths, texts):
            Path(path).write_bytes(text)
        out = root / "fused.trec"
        results = {}
        # one process first, then every count at the drawn range budget
        for cpus, budget in [(1, default)] + [(cpus, budget) for cpus in (1, 2, 3, 16)]:
            monkeypatch.setattr(workers, "BUDGET", budget)
            code = _fuse(monkeypatch, cpus, [*paths, "--mode", mode, "--depth", str(depth), "--out", str(out)])
            results[cpus, budget] = code, out.read_bytes() if code == 0 else None, capsys.readouterr()
            assert sorted(os.listdir(root)) == sorted(
                [Path(p).name for p in paths] + ["fused.trec", "fused.trec.manifest.json"] * (code == 0)
            )
            for name in ("fused.trec", "fused.trec.manifest.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(root / name)
        assert all(got == results[1, default] for got in results.values())

    check()


def _budgets(st):
    """Range budgets in bytes: tiny ones give every process several ranges
    of the drawn run files, the default one range per process."""
    return st.one_of(st.integers(1, 400), st.just(workers.BUDGET))


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
    assert capsys.readouterr().err.startswith(f"data error: {run}:1: bad score: ")


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


def test_forced_workers_evaluate_drawn_runs_as_one_process(tmp_path_factory, monkeypatch, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default = workers.BUDGET

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.composite(_iteration_runs)(), st.data(), _budgets(st))
    def check(texts, data, budget):
        root = tmp_path_factory.mktemp("evaluate")
        run, qrels = root / "run.trec", root / "qrels.txt"
        run.write_bytes(data.draw(st.sampled_from(texts)))
        judged = data.draw(st.lists(st.tuples(st.sampled_from(["s0", "s1", "s10", "s99"]), st.sampled_from(PIDS)), max_size=8))
        qrels.write_text("".join(f"{qid} 0 {pid} 1\n" for qid, pid in judged))
        out = root / "report.json"
        results = {}
        for cpus, budget in [(1, default)] + [(cpus, budget) for cpus in (1, 2, 3, 16)]:
            monkeypatch.setattr(workers, "BUDGET", budget)
            code = _evaluate(monkeypatch, cpus, str(run), str(qrels), str(out))
            results[cpus, budget] = code, out.read_bytes() if code == 0 else None, capsys.readouterr()
            assert sorted(os.listdir(root)) == sorted(["run.trec", "qrels.txt"] + ["report.json", "report.json.manifest.json"] * (code == 0))
            for name in ("report.json", "report.json.manifest.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(root / name)
        assert all(got == results[1, default] for got in results.values())

    check()


def _deep_runs(root: Path) -> list[str]:
    """Three nested iteration runs of 5 to 10 lines a query: 96 queries,
    every second one and every fourth one, so each file holds every query
    of the smallest and a small budget cuts every file."""
    rng = random.Random(21)
    qids = [f"q{n:02d}" for n in range(96)]
    root.mkdir()
    paths = []
    for i, members in enumerate([qids, qids[::2], qids[::4]], 1):
        lists = []
        for qid in members:
            pids = rng.sample([f"p{n}" for n in range(60)], rng.randint(5, 10))
            lists.append(RankedList(qid, [(pid, float(rng.randint(0, 5))) for pid in pids]))
        path = root / f"iter_{i:02d}.trec"
        write_run(lists, str(path))
        paths.append(str(path))
    return paths


@pytest.fixture
def every_read(tmp_path, monkeypatch):
    """A function giving every ``read_run`` call that ``workers`` has made
    in any process so far, as ``(pid, path, start, stop)``; a whole read
    has no start or stop."""
    log = tmp_path / "reads.jsonl"

    def recording(path, *cut):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), path, *(cut or (None, None))]) + "\n")
        return read_run(path, *cut)

    monkeypatch.setattr(workers, "read_run", recording)
    return lambda: [tuple(json.loads(line)) for line in log.read_text().splitlines()] if log.exists() else []


def _longest_query(path: str) -> int:
    sizes: dict[bytes, int] = {}
    for line in Path(path).read_bytes().splitlines(keepends=True):
        sizes[line.split()[0]] = sizes.get(line.split()[0], 0) + len(line)
    return max(sizes.values())


@pytest.mark.parametrize("command", ["fuse", "evaluate"])
def test_a_small_budget_bounds_every_read_and_the_process_count(tmp_path, monkeypatch, capsys, forked, every_read, command):
    paths = _deep_runs(tmp_path / "runs")
    qrels = tmp_path / "runs" / "qrels.txt"
    qrels.write_text("q00 0 p1 1\nq04 0 p2 2\n")
    budget, default = 2048, workers.BUDGET
    total = sum(map(os.path.getsize, paths if command == "fuse" else paths[:1]))
    assert total > 4 * budget
    slack = max(map(_longest_query, paths))
    outputs = []
    monkeypatch.setattr(workers, "BUDGET", budget)
    for cpus in (1, 2, 3):
        out = tmp_path / f"out.{cpus}"
        before, reads_before = len(forked), len(every_read())
        if command == "fuse":
            assert all(workers._shared_cuts(paths, workers._range_count(total, cpus)))  # every file is cut
            assert _fuse(monkeypatch, cpus, [*paths, "--out", str(out)]) == 0
        else:
            assert _evaluate(monkeypatch, cpus, paths[0], str(qrels), str(out)) == 0
        reads = every_read()[reads_before:]
        # no file is read whole, and no range is larger than the budget plus one query
        assert reads and all(start is not None and stop - start <= budget + slack for _, _, start, stop in reads)
        # at most one process per CPU, each running several ranges
        processes = {pid for pid, *_ in reads}
        assert len(forked) - before == len(processes) - 1 == cpus - 1
        assert all(sum(pid == p and path == paths[0] for p, path, *_ in reads) > 1 for pid in processes)
        outputs.append(out.read_bytes())
    # one process at the default budget reads each file whole and writes the same bytes
    monkeypatch.setattr(workers, "BUDGET", default)
    one = tmp_path / "one"
    if command == "fuse":
        assert _fuse(monkeypatch, 1, [*paths, "--out", str(one)]) == 0
    else:
        assert _evaluate(monkeypatch, 1, paths[0], str(qrels), str(one)) == 0
    assert outputs == [one.read_bytes()] * 3
    _assert_reaped(forked)
    capsys.readouterr()


def test_a_file_read_whole_is_read_once_by_each_process(tmp_path, monkeypatch, capsys, forked, every_read):
    (tmp_path / "runs").mkdir()
    paths = _nested_runs(tmp_path / "runs")
    assert _fuse(monkeypatch, 1, [*paths, "--out", str(tmp_path / "one.trec")]) == 0
    # two ranges a process, and the deepest run lacks a boundary
    monkeypatch.setattr(workers, "BUDGET", 6000)
    cuts = workers._shared_cuts(paths, workers._range_count(sum(map(os.path.getsize, paths)), 2))
    assert all(cuts[:3]) and cuts[3] is None and len(cuts[0]) - 1 == 4
    reads_before = len(every_read())
    assert _fuse(monkeypatch, 2, [*paths, "--out", str(tmp_path / "fused.trec")]) == 0
    assert (tmp_path / "fused.trec").read_bytes() == (tmp_path / "one.trec").read_bytes()
    reads = every_read()[reads_before:]
    assert len(forked) == 1 and sorted(pid for pid, path, start, _ in reads if start is None) == sorted([os.getpid(), *forked])
    assert all(path == paths[3] for _, path, start, _ in reads if start is None)
    _assert_reaped(forked)
    capsys.readouterr()


def test_a_process_runs_no_range_after_its_first_failure(tmp_path, monkeypatch, capsys, forked, every_read):
    # last-first, each range's slice of the first file lacks queries that
    # its slice of the later files holds, so every range fails
    paths = _deep_runs(tmp_path / "runs")[::-1]
    assert _fuse(monkeypatch, 1, [*paths, "--out", str(tmp_path / "one.trec")]) == 0
    monkeypatch.setattr(workers, "BUDGET", 4096)
    cuts = workers._shared_cuts(paths, workers._range_count(sum(map(os.path.getsize, paths)), 2))
    assert all(cuts) and len(cuts[0]) - 1 > 4
    del forked[:]
    reads_before = len(every_read())
    assert _fuse(monkeypatch, 2, [*paths, "--out", str(tmp_path / "fused.trec")]) == 0
    assert (tmp_path / "fused.trec").read_bytes() == (tmp_path / "one.trec").read_bytes()
    reads = every_read()[reads_before:]
    starts = {pid: [start for p, path, start, _ in reads if p == pid and path == paths[0] and start is not None]
              for pid, *_ in reads}
    # each process read only the first range of its block, then this
    # process read every file whole
    blocks = workers._blocks(len(cuts[0]) - 1, 2)
    assert len(forked) == 1 and sorted(starts.values()) == sorted([[cuts[0][block.start]] for block in blocks])
    assert reads[-len(paths):] == [(os.getpid(), p, None, None) for p in paths]
    _assert_reaped(forked)
    capsys.readouterr()

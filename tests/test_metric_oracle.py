"""Property: ``evaluate_run`` over the library's readers, and
``workers.evaluate_file`` on forked workers, report what the metric oracle
computes from the definitions over the oracle run reader."""

from __future__ import annotations

import os

import pytest

from icr import workers
from icr.corpus import load_qrels
from icr.evaluation import evaluate_run
from icr.ranking import read_run

from .oracles import oracle_evaluate, oracle_read_run

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

QIDS = ["q1", "q2", "q3", "q4", "q5"]
PIDS = [f"d{i}" for i in range(14)]


@st.composite
def run_and_qrels(draw, min_queries: int = 0) -> tuple[str, str]:
    """A run whose lists reach past rank 10, with tied ranks and queries
    split over blocks, and graded qrels with zero grades, repeated lines,
    judged queries missing from the run and run queries never judged."""
    rows = []
    for qid in draw(st.lists(st.sampled_from(QIDS), unique=True, min_size=min_queries)):
        pids = draw(st.lists(st.sampled_from(PIDS), unique=True, min_size=min(min_queries, 1), max_size=len(PIDS)))
        rows += [(qid, pid, draw(st.integers(1, 12)), draw(st.sampled_from([1.0, 0.5, 0.25]))) for pid in pids]
    rows = draw(st.permutations(rows))
    run = "".join(f"{qid} Q0 {pid} {rank} {score!r} T\n" for qid, pid, rank, score in rows)
    judged = draw(st.lists(
        st.tuples(st.sampled_from(QIDS), st.sampled_from(PIDS[:8] + ["unretrieved"]), st.integers(0, 3)),
        max_size=24,
    ))
    qrels = "".join(f"{qid} 0 {pid} {grade}\n" for qid, pid, grade in judged)
    return run, qrels


@st.composite
def grouped_run_and_qrels(draw) -> tuple[str, str]:
    """``run_and_qrels`` with each query's lines together, as runs are
    written, except that the first query's last lines may be moved to the
    end, one of them judged relevant; lines end with LF or CRLF, and blank
    lines may come anywhere."""
    run, qrels = draw(run_and_qrels(min_queries=3))
    lines = run.splitlines()
    first_seen = list(dict.fromkeys(line.split()[0] for line in lines))
    lines.sort(key=lambda line: first_seen.index(line.split()[0]))
    first = sum(1 for line in lines if line.startswith(f"{first_seen[0]} "))
    if first > 1 and draw(st.booleans()):
        moved = draw(st.integers(1, first - 1))
        lines = lines[: first - moved] + lines[first:] + lines[first - moved : first]
        qrels += f"{first_seen[0]} 0 {lines[-1].split()[2]} 1\n"
    text = ""
    for line in lines:
        text += draw(st.sampled_from(["", "", "\n", " \r\n"])) + line + draw(st.sampled_from(["\n", "\r\n"]))
    return text, qrels


def _close(got, want) -> bool:
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, float):
        return abs(got - want) <= 1e-12
    return got == want


def test_evaluate_run_matches_the_metric_oracle(tmp_path_factory):
    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(run_and_qrels())
    def check(files):
        root = tmp_path_factory.mktemp("eval")
        run, qrels = root / "run.trec", root / "qrels.txt"
        run.write_text(files[0])
        qrels.write_text(files[1])
        got = evaluate_run(read_run(str(run)), load_qrels(str(qrels)))
        want = oracle_evaluate(oracle_read_run(str(run)), str(qrels))
        assert list(got["per_sample"]) == list(want["per_sample"])
        assert _close(got, want)

    check()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_evaluate_on_workers_matches_the_metric_oracle(tmp_path_factory, monkeypatch):
    # tiny range budgets give each process several ranges
    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(grouped_run_and_qrels(), st.integers(2, 6), st.one_of(st.integers(1, 300), st.just(workers.BUDGET)))
    def check(files, cpus, budget):
        root = tmp_path_factory.mktemp("eval")
        run, qrels = root / "run.trec", root / "qrels.txt"
        run.write_bytes(files[0].encode())
        qrels.write_text(files[1])
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(workers, "BUDGET", budget)
        got = workers.evaluate_file(str(run), load_qrels(str(qrels)))
        want = oracle_evaluate(oracle_read_run(str(run)), str(qrels))
        assert list(got["per_sample"]) == list(want["per_sample"])
        assert _close(got, want)
        assert got == evaluate_run(read_run(str(run)), load_qrels(str(qrels)))

    check()

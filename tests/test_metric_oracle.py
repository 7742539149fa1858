"""Property: ``evaluate_run`` over the library's readers reports what the
metric oracle computes from the definitions over the oracle run reader."""

from __future__ import annotations

import pytest

from icr.corpus import load_qrels
from icr.evaluation import evaluate_run
from icr.ranking import read_run

from .oracles import oracle_evaluate, oracle_read_run

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

QIDS = ["q1", "q2", "q3", "q4", "q5"]
PIDS = [f"d{i}" for i in range(14)]


@st.composite
def run_and_qrels(draw) -> tuple[str, str]:
    """A run whose lists reach past rank 10, with tied ranks and queries
    split over blocks, and graded qrels with zero grades, repeated lines,
    judged queries missing from the run and run queries never judged."""
    rows = []
    for qid in draw(st.lists(st.sampled_from(QIDS), unique=True)):
        pids = draw(st.lists(st.sampled_from(PIDS), unique=True, max_size=len(PIDS)))
        rows += [(qid, pid, draw(st.integers(1, 12)), draw(st.sampled_from([1.0, 0.5, 0.25]))) for pid in pids]
    rows = draw(st.permutations(rows))
    run = "".join(f"{qid} Q0 {pid} {rank} {score!r} T\n" for qid, pid, rank, score in rows)
    judged = draw(st.lists(
        st.tuples(st.sampled_from(QIDS), st.sampled_from(PIDS[:8] + ["unretrieved"]), st.integers(0, 3)),
        max_size=24,
    ))
    qrels = "".join(f"{qid} 0 {pid} {grade}\n" for qid, pid, grade in judged)
    return run, qrels


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

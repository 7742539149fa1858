from __future__ import annotations

import functools

import pytest

from icr import pipeline
from icr.corpus import CQRSample, Passage, Qrels
from icr.evaluation import Indexes, evaluate_run, metric_set
from icr.fusion import FusionConfig
from icr.genclient import ScriptedMock, clarify_fingerprint, rewrite_fingerprint
from icr.pipeline import (
    InferenceConfig,
    emit_per_query_runs,
    emit_run,
    extract_queries,
    measure_latency,
    retrieve_and_fuse,
    run_batch,
    run_inference,
)
from icr.ranking import read_run
from icr.sparse_index import build_sparse_index

FIG_QUERIES = [
    "space shuttle nasa",
    "nasa apollo mission",
    "manatee habitat florida springs",
]


def make_fig_corpus() -> list[Passage]:
    """20 docs where only the final rewrite retrieves gold (at rank 1).

    The first two rewrites pull in two distractors whose reciprocal-rank
    mass exceeds gold's under plain fusion but not under the
    iteration-weighted variant.
    """
    passages = [
        Passage("gold", "manatee habitat florida springs"),
        Passage("distx", "space shuttle nasa"),
        Passage("disty", "apollo mission history nasa moon"),
    ]
    for i in range(17):
        passages.append(Passage(f"pad{i:02d}", f"padx{i} pady{i} padz{i}"))
    return passages


def fig_trajectory_text() -> str:
    return (
        "[Clarification] which program? [Rewrite] space shuttle nasa "
        "[Clarification] which agency? [Rewrite] nasa apollo mission "
        "[Clarification] which animal? [Rewrite] manatee habitat florida springs"
    )


@pytest.fixture(scope="module")
def fig_sparse():
    return build_sparse_index(make_fig_corpus())


@pytest.fixture()
def fig_sample():
    return CQRSample("fig", [], "what about it", {"gold"})


def test_one_shot_inference_is_passthrough(fig_sample):
    text = fig_trajectory_text()
    mock = ScriptedMock().add("trajectory", "Q: what about it", text)
    config = InferenceConfig()
    assert run_inference(fig_sample, mock, config) == text


def test_step_wise_capped_at_max_iters(fig_sample):
    mock = ScriptedMock()
    q = fig_sample.query
    for i in range(5):
        clar = f"step {i}?"
        nxt = f"{q} more{i}"
        mock.add("clarify", clarify_fingerprint(q), clar)
        mock.add("rewrite", rewrite_fingerprint(q, clar), nxt)
        q = nxt
    config = InferenceConfig(max_iters=2, step_wise=True)
    text = run_inference(fig_sample, mock, config)
    assert len(extract_queries(text)) == 2


def test_step_wise_stops_when_script_ends(fig_sample):
    mock = ScriptedMock()
    clar = "only one?"
    mock.add("clarify", clarify_fingerprint(fig_sample.query), clar)
    mock.add("rewrite", rewrite_fingerprint(fig_sample.query, clar), "expanded query")
    config = InferenceConfig(max_iters=10, step_wise=True)
    text = run_inference(fig_sample, mock, config)
    assert extract_queries(text) == ["expanded query"]


@pytest.mark.parametrize("clarification, rewrite", [
    ("Who is meant by [Rewrite] here?", "what else did susan belbin make?"),
    ("Who is meant here?", "what else did [Clarification] she make?"),
    ("   ", "what else did susan belbin make?"),
    ("Who is meant here?", " \n "),
], ids=["marked-clarification", "marked-rewrite", "blank-clarification", "blank-rewrite"])
def test_step_wise_ends_on_an_empty_or_marked_generation(fig_sample, clarification, rewrite):
    # the second round's generation is refused, so the chain keeps the first
    # round's pair; a marker kept in the text would split the pairs wrongly
    q = fig_sample.query
    mock = ScriptedMock()
    mock.add("clarify", clarify_fingerprint(q), "which one?")
    mock.add("rewrite", rewrite_fingerprint(q, "which one?"), "what about susan belbin")
    mock.add("clarify", clarify_fingerprint("what about susan belbin"), clarification)
    mock.add("rewrite", rewrite_fingerprint("what about susan belbin", clarification.strip()), rewrite)
    text = run_inference(fig_sample, mock, InferenceConfig(max_iters=10, step_wise=True))
    assert text == "[Clarification] which one? [Rewrite] what about susan belbin"
    assert extract_queries(text) == ["what about susan belbin"]


def test_extract_queries_cases():
    assert extract_queries(fig_trajectory_text()) == FIG_QUERIES
    assert extract_queries("total garbage") == []
    dup = "[Clarification] a [Rewrite] same [Clarification] b [Rewrite] same"
    assert extract_queries(dup) == ["same", "same"]


def test_single_query_fusion_preserves_run(fig_sparse):
    searcher = functools.partial(Indexes(fig_sparse).search, "sparse")
    config = InferenceConfig(fusion=FusionConfig(mode="prrf"))
    runs, fused, fallback = retrieve_and_fuse(
        ["manatee habitat florida springs"], searcher, config, "fig", "orig"
    )
    assert not fallback
    assert fused.ids() == runs[0].ids()


def test_empty_queries_fall_back_to_original(fig_sparse):
    searcher = functools.partial(Indexes(fig_sparse).search, "sparse")
    config = InferenceConfig()
    runs, fused, fallback = retrieve_and_fuse(
        [], searcher, config, "fig", "manatee habitat"
    )
    assert fallback
    assert len(runs) == 1
    assert fused.ids()[0] == "gold"


def test_prrf_beats_rrf_when_only_final_hits(fig_sparse):
    searcher = functools.partial(Indexes(fig_sparse).search, "sparse")
    runs = [searcher(q, 100, "fig") for q in FIG_QUERIES]
    # fixture premise: gold only in the last run, at rank 1; the two
    # distractors carry rank-1/rank-2 mass in the earlier runs
    assert "gold" not in runs[0].ids()
    assert "gold" not in runs[1].ids()
    assert runs[2].ids()[0] == "gold"
    assert runs[0].ids()[:2] == ["distx", "disty"]
    assert runs[1].ids()[:2] == ["disty", "distx"]

    def fused_rank(mode: str) -> int:
        config = InferenceConfig(fusion=FusionConfig(mode=mode))
        _, fused, _ = retrieve_and_fuse(FIG_QUERIES, searcher, config, "fig", "orig")
        return fused.ids().index("gold") + 1

    prrf_rank = fused_rank("prrf")
    final_rank = fused_rank("final_only")
    rrf_rank = fused_rank("rrf")
    assert prrf_rank <= final_rank <= rrf_rank
    assert prrf_rank < rrf_rank


def test_emit_run_roundtrips_through_evaluation(tmp_path, fig_sparse, fig_sample):
    mock = ScriptedMock().add("trajectory", "Q: what about it", fig_trajectory_text())
    config = InferenceConfig(fusion=FusionConfig(mode="prrf"))
    results = run_batch([fig_sample], mock, config, Indexes(fig_sparse))["sparse"]
    path = tmp_path / "run.trec"
    assert emit_run(results, str(path)) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == len(results[0].fused)
    assert lines[0].split()[:2] == ["fig", "Q0"]

    qrels = Qrels()
    qrels.set("fig", "gold", 1)
    reloaded = read_run(str(path))
    report = evaluate_run(reloaded, qrels)
    in_memory = metric_set(results[0].fused, {"gold"})
    assert report["per_sample"]["fig"]["mrr"] == pytest.approx(in_memory.mrr)
    assert report["per_sample"]["fig"]["ndcg3"] == pytest.approx(in_memory.ndcg3)


def test_emit_run_empty_fused_writes_nothing(tmp_path, fig_sparse, fig_sample):
    mock = ScriptedMock().add(
        "trajectory", "Q: what about it", "[Clarification] c [Rewrite] zzzunknown"
    )
    config = InferenceConfig()
    results = run_batch([fig_sample], mock, config, Indexes(fig_sparse))["sparse"]
    path = tmp_path / "run.trec"
    assert emit_run(results, str(path)) == 1
    assert path.read_text() == ""


def test_per_query_runs_written_per_iteration(tmp_path, fig_sparse, fig_sample):
    mock = ScriptedMock().add("trajectory", "Q: what about it", fig_trajectory_text())
    config = InferenceConfig()
    results = run_batch([fig_sample], mock, config, Indexes(fig_sparse))["sparse"]
    paths = emit_per_query_runs(results, str(tmp_path / "iters"))
    assert [p.split("/")[-1] for p in paths] == ["iter_01.trec", "iter_02.trec", "iter_03.trec"]
    assert read_run(paths[2])["fig"].ids()[0] == "gold"


def test_both_report_produces_two_result_sets(fig_sparse, fig_sample):
    from icr.dense_index import HashEmbeddingProvider, build_dense_index

    provider = HashEmbeddingProvider(dim=64)
    dense = build_dense_index(make_fig_corpus(), provider)
    mock = ScriptedMock().add("trajectory", "Q: what about it", fig_trajectory_text())
    config = InferenceConfig(retriever="both-report")
    results = run_batch([fig_sample], mock, config, Indexes(fig_sparse, dense, provider))
    assert set(results) == {"sparse", "dense"}
    assert results["sparse"][0].trajectory_text == results["dense"][0].trajectory_text


class _Clock:
    """Stands in for the ``time`` module that ``pipeline`` reads."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class _SlowClient:
    """Takes ``delay`` seconds of ``clock`` time per call, without waiting."""

    def __init__(self, inner, delay: float, clock: _Clock):
        self.inner = inner
        self.delay = delay
        self.clock = clock

    def generate(self, kind, fingerprint, prompt, attempt=0):
        self.clock.now += self.delay
        return self.inner.generate(kind, fingerprint, prompt, attempt)


def test_latency_mock_is_fast(fig_sample):
    mock = ScriptedMock().add("trajectory", "Q: what about it", fig_trajectory_text())
    report = measure_latency([fig_sample], mock, InferenceConfig())
    assert report["mean_seconds"] < 0.05
    assert set(report["per_sample"]) == {"fig"}


def test_latency_empty_batch():
    report = measure_latency([], ScriptedMock(), InferenceConfig())
    assert report == {"per_sample": {}, "mean_seconds": None}


def test_latency_injected_delay(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(pipeline, "time", clock)
    samples = [CQRSample(f"s{i}", [], "q", set()) for i in range(4)]
    inner = ScriptedMock().add("trajectory", "Q: q", "[Clarification] c [Rewrite] r")
    client = _SlowClient(inner, 0.05, clock)
    report = measure_latency(samples, client, InferenceConfig())
    assert 0.05 <= report["mean_seconds"] <= 0.06


def test_batch_is_deterministic(fig_sparse, fig_sample):
    mock = ScriptedMock().add("trajectory", "Q: what about it", fig_trajectory_text())
    config = InferenceConfig()
    a = run_batch([fig_sample], mock, config, Indexes(fig_sparse))["sparse"][0]
    b = run_batch([fig_sample], mock, config, Indexes(fig_sparse))["sparse"][0]
    assert a.fused.entries == b.fused.entries
    assert [r.entries for r in a.per_query_runs] == [r.entries for r in b.per_query_runs]

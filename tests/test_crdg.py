from __future__ import annotations

import json
from collections import Counter

import pytest

from icr import crdg
from icr.corpus import CQRSample
from icr.crdg import (
    CrdgConfig,
    Trajectory,
    TrajectoryStep,
    build_crdg_dataset,
    generate_trajectory,
    load_trajectories,
    parse_trajectory,
    read_crdg_records,
    serialize_trajectory,
    trajectory_from_record,
    trajectory_to_record,
)
from icr.errors import ProviderUnavailable
from icr.evaluation import MetricSet, QualityScore
from icr.genclient import ScriptedMock, clarify_fingerprint, rewrite_fingerprint

from .conftest import improve_then_plateau, improving_script, plateau_script, tier_query


class FailingClient:
    """Delegates to a mock until ``fail_after`` calls, then goes down."""

    def __init__(self, inner: ScriptedMock, fail_after: int):
        self.inner = inner
        self.fail_after = fail_after
        self.calls = 0

    def generate(self, kind, fingerprint, prompt, attempt=0):
        self.calls += 1
        if self.calls > self.fail_after:
            raise ProviderUnavailable("endpoint down")
        return self.inner.generate(kind, fingerprint, prompt, attempt)


def test_three_improving_steps(tier_sparse, tier_dense, tier_provider, tier_sample):
    mock = improve_then_plateau(rounds=3, attempts=4)
    config = CrdgConfig(early_stop=3, max_iters=10, resample_budget=3)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    assert len(traj.steps) == 3
    path = traj.f_path()
    assert all(path[i - 1] < path[i] for i in range(1, len(path)))
    assert traj.stop_reason == "early_stop"
    assert traj.final_rewrite() == tier_query(4)
    # 3 accepted rounds (2 calls each) + 3 failed rounds of 4 attempts (8 calls each)
    assert mock.calls == 3 * 2 + 3 * 8


def test_f_scored_once_per_distinct_text(
    monkeypatch, tier_sparse, tier_dense, tier_provider, tier_sample
):
    # three failed rounds of four attempts echo the last accepted rewrite,
    # and the unmemoised loop scored that text thirteen times
    calls: Counter = Counter()
    f_score = crdg.f_score

    def counted(text, sample, *args):
        calls[(sample.sample_id, text)] += 1
        return f_score(text, sample, *args)

    monkeypatch.setattr(crdg, "f_score", counted)
    mock = improve_then_plateau(rounds=3, attempts=4)
    config = CrdgConfig(early_stop=3, max_iters=10, resample_budget=3)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    texts = [tier_query(m) for m in range(1, 5)]
    assert calls == Counter({("s1", t): 1 for t in texts})
    assert traj.f_path() == [f_score(t, tier_sample, tier_sparse, tier_dense, tier_provider).f for t in texts]


def test_plateau_only_yields_empty_trajectory(tier_sparse, tier_dense, tier_provider, tier_sample):
    mock = plateau_script(tier_sample.query, attempts=4)
    config = CrdgConfig(early_stop=3, max_iters=10, resample_budget=3)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    assert traj.steps == []
    assert traj.stop_reason == "early_stop"
    assert traj.f_path() == [traj.f0.f]
    assert mock.calls == 3 * 8  # exactly E failed rounds, B+1 attempts each


def test_two_improvements_then_stop_with_tight_budget(
    tier_sparse, tier_dense, tier_provider, tier_sample
):
    mock = improve_then_plateau(rounds=2, attempts=1)
    config = CrdgConfig(early_stop=1, max_iters=10, resample_budget=0)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    assert len(traj.steps) == 2
    assert traj.stop_reason == "early_stop"
    assert mock.calls == 2 * 2 + 1 * 2  # two accepts, one failed round ends it


def test_max_iterations_cap(tier_sparse, tier_dense, tier_provider, tier_sample):
    mock = improving_script(rounds=10)
    config = CrdgConfig(early_stop=3, max_iters=10, resample_budget=3)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    assert len(traj.steps) == 10
    assert traj.stop_reason == "max_iterations"
    assert traj.final_rewrite() == tier_query(11)
    path = traj.f_path()
    assert all(path[i - 1] < path[i] for i in range(1, len(path)))


def test_resample_accepts_on_second_attempt(tier_sparse, tier_dense, tier_provider, tier_sample):
    q = tier_sample.query
    mock = ScriptedMock()
    # attempt 0 echoes (fails), attempt 1 improves
    mock.add("clarify", clarify_fingerprint(q), "echo?", 0)
    mock.add("rewrite", rewrite_fingerprint(q, "echo?"), q, 0)
    mock.add("clarify", clarify_fingerprint(q), "extend?", 1)
    mock.add("rewrite", rewrite_fingerprint(q, "extend?"), tier_query(2), 1)
    mock = plateau_script(tier_query(2), attempts=2, mock=mock)
    config = CrdgConfig(early_stop=1, max_iters=5, resample_budget=1)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    assert len(traj.steps) == 1
    assert traj.steps[0].attempt_count == 2
    assert traj.steps[0].rewrite == tier_query(2)


def test_empty_response_consumes_attempt(tier_sparse, tier_dense, tier_provider, tier_sample):
    q = tier_sample.query
    mock = ScriptedMock()
    mock.add("clarify", clarify_fingerprint(q), "   ", 0)  # blank -> EmptyResponse
    mock.add("clarify", clarify_fingerprint(q), "extend?", 1)
    mock.add("rewrite", rewrite_fingerprint(q, "extend?"), tier_query(2), 1)
    mock = plateau_script(tier_query(2), attempts=2, mock=mock)
    config = CrdgConfig(early_stop=1, max_iters=5, resample_budget=1)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    assert len(traj.steps) == 1
    assert traj.steps[0].attempt_count == 2


def test_provider_failure_keeps_partial_steps(tier_sparse, tier_dense, tier_provider, tier_sample):
    # two accepted rounds = 4 calls; the 5th call dies
    client = FailingClient(improving_script(rounds=10), fail_after=4)
    config = CrdgConfig(early_stop=3, max_iters=10, resample_budget=3)
    traj = generate_trajectory(tier_sample, client, tier_sparse, tier_dense, tier_provider, config)
    assert traj.stop_reason == "provider_failure"
    assert len(traj.steps) == 2


class _FlakyProvider:
    """Hash provider whose embedding calls start failing after a budget."""

    def __init__(self, inner, fail_after: int):
        self.inner = inner
        self.name = inner.name
        self.dim = inner.dim
        self.fail_after = fail_after
        self.calls = 0

    def embed_batch(self, texts, role=None):
        self.calls += 1
        if self.calls > self.fail_after:
            raise ProviderUnavailable("embedder down")
        return self.inner.embed_batch(texts, role=role)


def test_provider_failure_during_scoring(tier_sparse, tier_dense, tier_provider, tier_sample):
    # f0 scoring uses 1 embed call; die on the first in-loop score
    flaky = _FlakyProvider(tier_provider, fail_after=1)
    config = CrdgConfig(early_stop=3, max_iters=10, resample_budget=3)
    traj = generate_trajectory(
        tier_sample, improving_script(rounds=10), tier_sparse, tier_dense, flaky, config
    )
    assert traj.stop_reason == "provider_failure"
    assert traj.steps == []


def test_build_dataset_records_provider_error_at_f0(
    tmp_path, tier_sparse, tier_dense, tier_provider, tier_sample
):
    flaky = _FlakyProvider(tier_provider, fail_after=0)
    out = tmp_path / "dcr.jsonl"
    stats = build_crdg_dataset(
        [tier_sample], improving_script(3), tier_sparse, tier_dense, flaky,
        CrdgConfig(), str(out),
    )
    assert stats.errors == 1
    assert "error" in read_crdg_records(str(out))[0]


def test_serialize_one_step(tier_sample, tier_sparse, tier_dense, tier_provider):
    mock = improve_then_plateau(rounds=1, attempts=4)
    config = CrdgConfig()
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, config)
    text = serialize_trajectory(traj)
    c, r = traj.steps[0].clarification, traj.steps[0].rewrite
    assert text == f"[Clarification] {c} [Rewrite] {r}"


def test_serialize_empty_is_empty_string(tier_sample, tier_sparse, tier_dense, tier_provider):
    mock = plateau_script(tier_sample.query, attempts=4)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, CrdgConfig())
    assert serialize_trajectory(traj) == ""


def test_parse_roundtrip():
    text = "[Clarification] Who is he? [Rewrite] Who is Drew? [Clarification] which Drew? [Rewrite] Who is Drew Scott?"
    parsed = parse_trajectory(text)
    assert parsed.warnings == 0
    assert parsed.pairs == [
        ("Who is he?", "Who is Drew?"),
        ("which Drew?", "Who is Drew Scott?"),
    ]


def test_parse_dangling_rewrite():
    parsed = parse_trajectory("[Rewrite] x")
    assert parsed.pairs == []
    assert parsed.warnings == 1


def test_parse_dangling_clarification():
    parsed = parse_trajectory("[Clarification] a [Rewrite] b [Clarification] c")
    assert parsed.pairs == [("a", "b")]
    assert parsed.warnings == 1


def test_parse_superseded_clarification():
    parsed = parse_trajectory("[Clarification] a [Clarification] b [Rewrite] c")
    assert parsed.pairs == [("b", "c")]
    assert parsed.warnings == 1


def test_parse_plain_text_is_empty():
    parsed = parse_trajectory("no markers at all")
    assert parsed.pairs == []


def test_record_roundtrip(tier_sample, tier_sparse, tier_dense, tier_provider):
    mock = improve_then_plateau(rounds=2, attempts=4)
    traj = generate_trajectory(tier_sample, mock, tier_sparse, tier_dense, tier_provider, CrdgConfig())
    record = trajectory_to_record(traj)
    assert record["empty"] is False
    assert trajectory_from_record(record) == traj


@pytest.fixture()
def three_samples(tier_sample):
    ok = tier_sample
    plateau = CQRSample("s2", [], "kelpie", {"gold"})
    broken = CQRSample("s3", [], tier_query(1), {"missing-id"})
    return [ok, plateau, broken]


def _three_sample_mock() -> ScriptedMock:
    mock = improve_then_plateau(rounds=3, attempts=4)
    return plateau_script("kelpie", attempts=4, mock=mock)


def test_build_dataset_records_and_errors(
    tmp_path, three_samples, tier_sparse, tier_dense, tier_provider
):
    mock = _three_sample_mock()
    out = tmp_path / "dcr.jsonl"
    stats = build_crdg_dataset(
        three_samples, mock, tier_sparse, tier_dense, tier_provider, CrdgConfig(), str(out)
    )
    assert (stats.written, stats.skipped, stats.errors) == (3, 0, 1)
    records = read_crdg_records(str(out))
    assert [r["sample_id"] for r in records] == ["s1", "s2", "s3"]
    assert "error" in records[2]
    assert records[1]["empty"] is True
    assert len(load_trajectories(str(out))) == 2


def test_load_trajectories_skips_provider_failures(tmp_path):
    f = QualityScore(1.0, MetricSet(), MetricSet(), "both")
    kept = Trajectory("s1", "q", f, [TrajectoryStep("c", "r", f)], stop_reason="early_stop")
    cut = Trajectory("s2", "q", f, [TrajectoryStep("c", "r", f)], stop_reason="provider_failure")
    records = [trajectory_to_record(kept), trajectory_to_record(cut), {"sample_id": "s3", "error": "gold missing"}]
    out = tmp_path / "dcr.jsonl"
    out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert [t.sample_id for t in load_trajectories(str(out))] == ["s1"]


def test_build_dataset_resumes(tmp_path, three_samples, tier_sparse, tier_dense, tier_provider):
    out = tmp_path / "dcr.jsonl"
    first = build_crdg_dataset(
        three_samples[:1], _three_sample_mock(), tier_sparse, tier_dense, tier_provider,
        CrdgConfig(), str(out),
    )
    assert first.written == 1
    second = build_crdg_dataset(
        three_samples, _three_sample_mock(), tier_sparse, tier_dense, tier_provider,
        CrdgConfig(), str(out),
    )
    assert second.skipped == 1
    assert second.written == 2
    assert [r["sample_id"] for r in read_crdg_records(str(out))] == ["s1", "s2", "s3"]


def test_build_dataset_recovers_from_partial_line(
    tmp_path, three_samples, tier_sparse, tier_dense, tier_provider
):
    out = tmp_path / "dcr.jsonl"
    build_crdg_dataset(
        three_samples[:1], _three_sample_mock(), tier_sparse, tier_dense, tier_provider,
        CrdgConfig(), str(out),
    )
    with open(out, "a", encoding="utf-8") as fh:
        fh.write('{"sample_id": "s2", "trunc')  # simulate a mid-write crash
    stats = build_crdg_dataset(
        three_samples, _three_sample_mock(), tier_sparse, tier_dense, tier_provider,
        CrdgConfig(), str(out),
    )
    assert stats.skipped == 1
    records = read_crdg_records(str(out))
    assert [r["sample_id"] for r in records] == ["s1", "s2", "s3"]


def test_resume_reruns_provider_failures(tmp_path, tier_sample, tier_sparse, tier_dense, tier_provider):
    # s1 takes 30 calls; the outage starts inside s2 and covers s4
    samples = [tier_sample, CQRSample("s2", [], "kelpie", {"gold"}), CQRSample("s4", [], tier_query(1), {"gold"})]
    out = tmp_path / "dcr.jsonl"
    first = build_crdg_dataset(
        samples, FailingClient(_three_sample_mock(), fail_after=35), tier_sparse, tier_dense,
        tier_provider, CrdgConfig(), str(out),
    )
    assert [r["stop_reason"] for r in read_crdg_records(str(out))] == [
        "early_stop", "provider_failure", "provider_failure",
    ]
    assert first.written == 3
    second = build_crdg_dataset(
        samples, _three_sample_mock(), tier_sparse, tier_dense, tier_provider, CrdgConfig(), str(out),
    )
    assert (second.skipped, second.written) == (1, 2)
    records = read_crdg_records(str(out))
    assert [r["sample_id"] for r in records] == ["s1", "s2", "s4"]
    assert [r["stop_reason"] for r in records] == ["early_stop"] * 3
    assert records[2] == {**records[0], "sample_id": "s4"}
    assert [p.name for p in tmp_path.iterdir()] == ["dcr.jsonl"]


def test_resume_reruns_error_records(tmp_path, tier_sample, tier_sparse, tier_dense, tier_provider):
    out = tmp_path / "dcr.jsonl"
    build_crdg_dataset(
        [tier_sample], improve_then_plateau(3, 4), tier_sparse, tier_dense,
        _FlakyProvider(tier_provider, fail_after=0), CrdgConfig(), str(out),
    )
    assert "error" in read_crdg_records(str(out))[0]
    stats = build_crdg_dataset(
        [tier_sample], improve_then_plateau(3, 4), tier_sparse, tier_dense, tier_provider, CrdgConfig(), str(out),
    )
    assert (stats.skipped, stats.written, stats.errors) == (0, 1, 0)
    records = read_crdg_records(str(out))
    assert len(records) == 1 and "error" not in records[0]


def test_build_dataset_byte_reproducible(
    tmp_path, three_samples, tier_sparse, tier_dense, tier_provider
):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        build_crdg_dataset(
            three_samples, _three_sample_mock(), tier_sparse, tier_dense, tier_provider,
            CrdgConfig(), str(out), seed=7,
        )
    assert a.read_bytes() == b.read_bytes()


def test_record_json_schema(tmp_path, tier_sample, tier_sparse, tier_dense, tier_provider):
    out = tmp_path / "dcr.jsonl"
    build_crdg_dataset(
        [tier_sample], improve_then_plateau(1, 4), tier_sparse, tier_dense, tier_provider,
        CrdgConfig(), str(out),
    )
    record = json.loads(out.read_text().splitlines()[0])
    assert set(record) == {
        "sample_id", "original_query", "f0", "steps", "serialized", "stop_reason", "empty",
    }
    step = record["steps"][0]
    assert set(step) == {"clarification", "rewrite", "f", "attempts"}
    assert set(step["f"]) == {"f", "sparse", "dense", "mode"}

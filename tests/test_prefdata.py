from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from icr import crdg
from icr.corpus import CQRSample
from icr.crdg import CrdgConfig, Trajectory, TrajectoryStep, serialize_trajectory
from icr.evaluation import Indexes, MetricSet, QualityScore, f_score
from icr.genclient import ScriptedMock, clarify_fingerprint, rewrite_fingerprint
from icr.prefdata import (
    build_pref_dataset,
    make_insufficient_decomposition,
    make_underthinking,
)

from .conftest import tier_query
from .support import make_overthinking


def _fake_quality(f: float) -> QualityScore:
    return QualityScore(f=f, sparse=MetricSet(), dense=MetricSet(), mode="both")


def _trajectory(n: int, sample_id: str = "s1", last_rewrite: str | None = None,
                last_f: QualityScore | None = None) -> Trajectory:
    steps = [
        TrajectoryStep(f"clar {i}?", f"rewrite {i}", _fake_quality(1.0 + i))
        for i in range(1, n + 1)
    ]
    if n and last_rewrite is not None:
        steps[-1] = TrajectoryStep(steps[-1].clarification, last_rewrite, last_f)
    return Trajectory(sample_id, "original", _fake_quality(0.5), steps, "early_stop")


def echo_ot_mock(query: str, attempts: int = 4) -> ScriptedMock:
    """Extra step whose rewrite echoes the last accepted query (delta F = 0)."""
    mock = ScriptedMock()
    for attempt in range(attempts):
        clar = f"anything more {attempt}?"
        mock.add("clarify", clarify_fingerprint(query), clar, attempt)
        mock.add("rewrite", rewrite_fingerprint(query, clar), query, attempt)
    return mock


@pytest.fixture()
def tier_quality(tier_sparse, tier_dense, tier_provider, tier_sample):
    def q(m: int) -> QualityScore:
        return f_score(tier_query(m), tier_sample, Indexes(tier_sparse, tier_dense, tier_provider), "both")

    return q


def test_overthinking_zero_delta_extension(
    tier_sparse, tier_dense, tier_provider, tier_sample, tier_quality
):
    chosen = _trajectory(2, last_rewrite=tier_query(5), last_f=tier_quality(5))
    mock = echo_ot_mock(tier_query(5))
    ot = make_overthinking(
        chosen, tier_sample, mock, Indexes(tier_sparse, tier_dense, tier_provider), CrdgConfig()
    )
    assert ot is not None
    assert len(ot.steps) == 3
    assert ot.steps[:2] == chosen.steps  # shared prefix
    assert ot.steps[2].f_score.f <= chosen.steps[-1].f_score.f


def test_overthinking_unsatisfiable_returns_none(
    tier_sparse, tier_dense, tier_provider, tier_sample, tier_quality
):
    chosen = _trajectory(1, last_rewrite=tier_query(3), last_f=tier_quality(3))
    mock = ScriptedMock()
    for attempt in range(4):  # every attempt strictly improves -> constraint unmet
        clar = f"more detail {attempt}?"
        mock.add("clarify", clarify_fingerprint(tier_query(3)), clar, attempt)
        mock.add("rewrite", rewrite_fingerprint(tier_query(3), clar), tier_query(4), attempt)
    ot = make_overthinking(
        chosen, tier_sample, mock, Indexes(tier_sparse, tier_dense, tier_provider),
        CrdgConfig(resample_budget=3),
    )
    assert ot is None
    assert mock.calls == 4 * 2


def test_overthinking_scores_each_rewrite_once(
    monkeypatch, tier_sparse, tier_dense, tier_provider, tier_sample, tier_quality
):
    # all four attempts propose the same improving rewrite
    calls: Counter = Counter()

    def counted(text, sample, *args):
        calls[(sample.sample_id, text)] += 1
        return f_score(text, sample, *args)

    monkeypatch.setattr(crdg, "f_score", counted)
    chosen = _trajectory(1, last_rewrite=tier_query(3), last_f=tier_quality(3))
    mock = ScriptedMock()
    for attempt in range(4):
        clar = f"more detail {attempt}?"
        mock.add("clarify", clarify_fingerprint(tier_query(3)), clar, attempt)
        mock.add("rewrite", rewrite_fingerprint(tier_query(3), clar), tier_query(4), attempt)
    ot = make_overthinking(
        chosen, tier_sample, mock, Indexes(tier_sparse, tier_dense, tier_provider),
        CrdgConfig(resample_budget=3),
    )
    assert ot is None
    assert calls == Counter({("s1", tier_query(4)): 1})


class _FixedChoiceRng:
    def __init__(self, value: int):
        self.value = value

    def choice(self, seq):
        assert self.value in seq
        return self.value


def test_overthinking_multi_two_redundant_steps(
    tier_sparse, tier_dense, tier_provider, tier_sample, tier_quality
):
    chosen = _trajectory(2, last_rewrite=tier_query(6), last_f=tier_quality(6))
    # 6 -> 5 -> 4: strictly decreasing F chain
    mock = ScriptedMock()
    for m in (6, 5):
        clar = f"trim {m}?"
        mock.add("clarify", clarify_fingerprint(tier_query(m)), clar)
        mock.add("rewrite", rewrite_fingerprint(tier_query(m), clar), tier_query(m - 1))
    ot = make_overthinking(
        chosen, tier_sample, mock, Indexes(tier_sparse, tier_dense, tier_provider), CrdgConfig(),
        multi=True, rng=_FixedChoiceRng(2),
    )
    assert ot is not None
    assert len(ot.steps) == 4
    chosen_f = chosen.steps[-1].f_score.f
    appended_f = [s.f_score.f for s in ot.steps[2:]]
    assert chosen_f >= appended_f[0] >= appended_f[1]


def test_overthinking_requires_steps(tier_sparse, tier_dense, tier_provider, tier_sample):
    empty = _trajectory(0)
    assert (
        make_overthinking(
            empty, tier_sample, ScriptedMock(), Indexes(tier_sparse, tier_dense, tier_provider), CrdgConfig()
        )
        is None
    )


def test_underthinking_prefix():
    rng = random.Random(1)
    traj = _trajectory(3)
    out = make_underthinking(traj, rng)
    assert out is not None
    truncated, e = out
    assert 1 <= e <= 2
    assert truncated.steps == traj.steps[:e]
    assert len(truncated.steps) < len(traj.steps)


def test_underthinking_needs_two_steps():
    rng = random.Random(1)
    assert make_underthinking(_trajectory(1), rng) is None
    assert make_underthinking(_trajectory(0), rng) is None


def test_underthinking_two_steps_forced_to_one():
    truncated, e = make_underthinking(_trajectory(2), random.Random(5))
    assert e == 1
    assert len(truncated.steps) == 1


def test_insufficient_decomposition_forced_merge():
    traj = _trajectory(2)
    out = make_insufficient_decomposition(traj, random.Random(3))
    assert out is not None
    merged, j = out
    assert j == 1
    assert len(merged.steps) == 1
    assert merged.steps[0].clarification == "clar 1? clar 2?"
    assert merged.steps[0].rewrite == "rewrite 2"


def test_insufficient_decomposition_middle_merge():
    traj = _trajectory(3)
    rng = random.Random(0)
    while True:
        probe = random.Random(rng.randint(0, 10**6))
        if probe.randint(1, 2) == 2:
            out = make_insufficient_decomposition(traj, probe)
            break
    merged, j = out
    assert j == 2
    assert merged.steps[0] == traj.steps[0]
    assert merged.steps[1].clarification == "clar 2? clar 3?"
    assert merged.steps[1].rewrite == "rewrite 3"
    assert len(merged.steps) == 2


def test_insufficient_decomposition_needs_two_steps():
    assert make_insufficient_decomposition(_trajectory(1), random.Random(0)) is None


def test_build_counts_by_length(
    tmp_path, tier_sparse, tier_dense, tier_provider, tier_sample, tier_quality
):
    samples = [
        CQRSample("s1", [], tier_query(1), {"gold"}),
        CQRSample("s2", [], tier_query(1), {"gold"}),
        CQRSample("s3", [], tier_query(1), {"gold"}),
    ]
    trajectories = [
        _trajectory(1, "s1", last_rewrite=tier_query(4), last_f=tier_quality(4)),
        _trajectory(2, "s2", last_rewrite=tier_query(5), last_f=tier_quality(5)),
        _trajectory(3, "s3", last_rewrite=tier_query(6), last_f=tier_quality(6)),
    ]
    mock = ScriptedMock()
    for m in (4, 5, 6):
        for attempt in range(4):
            clar = f"anything more {attempt}?"
            mock.add("clarify", clarify_fingerprint(tier_query(m)), clar, attempt)
            mock.add("rewrite", rewrite_fingerprint(tier_query(m), clar), tier_query(m), attempt)
    out = tmp_path / "pref.jsonl"
    stats = build_pref_dataset(
        trajectories, samples, mock, Indexes(tier_sparse, tier_dense, tier_provider),
        CrdgConfig(), str(out), seed=3,
    )
    assert stats.ot == 3
    assert stats.ut == 2
    assert stats.id == 2
    assert stats.total == 7
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 7
    assert {r["dimension"] for r in records} == {"ot", "ut", "id"}
    for r in records:
        assert r["chosen"] != r["rejected"]
        assert set(r) == {
            "sample_id", "context", "chosen", "rejected", "dimension", "meta",
            "f_chosen_last", "f_rejected_last",
        }


def test_build_all_length_one_yields_no_ut_id(
    tmp_path, tier_sparse, tier_dense, tier_provider, tier_quality
):
    samples = [CQRSample("s1", [], tier_query(1), {"gold"})]
    trajectories = [_trajectory(1, "s1", last_rewrite=tier_query(4), last_f=tier_quality(4))]
    mock = echo_ot_mock(tier_query(4))
    out = tmp_path / "pref.jsonl"
    stats = build_pref_dataset(
        trajectories, samples, mock, Indexes(tier_sparse, tier_dense, tier_provider),
        CrdgConfig(), str(out),
    )
    assert (stats.ut, stats.id) == (0, 0)


def test_build_deterministic_under_seed(
    tmp_path, tier_sparse, tier_dense, tier_provider, tier_quality
):
    samples = [CQRSample("s1", [], tier_query(1), {"gold"})]
    trajectories = [_trajectory(3, "s1", last_rewrite=tier_query(6), last_f=tier_quality(6))]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        build_pref_dataset(
            trajectories, samples, echo_ot_mock(tier_query(6)),
            Indexes(tier_sparse, tier_dense, tier_provider), CrdgConfig(), str(out), seed=11,
        )
    assert a.read_bytes() == b.read_bytes()


def test_build_missing_sample_is_error_record(tmp_path, tier_sparse, tier_dense, tier_provider):
    trajectories = [_trajectory(2, "ghost")]
    out = tmp_path / "pref.jsonl"
    stats = build_pref_dataset(
        trajectories, [], ScriptedMock(), Indexes(tier_sparse, tier_dense, tier_provider),
        CrdgConfig(), str(out),
    )
    assert stats.errors == 1
    rec = json.loads(out.read_text().splitlines()[0])
    assert "error" in rec


def test_serialized_pair_content(tier_sparse, tier_dense, tier_provider, tier_sample, tier_quality):
    chosen = _trajectory(2, last_rewrite=tier_query(5), last_f=tier_quality(5))
    truncated, e = make_underthinking(chosen, random.Random(2))
    assert serialize_trajectory(truncated) in serialize_trajectory(chosen)
    assert serialize_trajectory(truncated) != serialize_trajectory(chosen)

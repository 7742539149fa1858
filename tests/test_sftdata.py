from __future__ import annotations

import json

import pytest

from icr.corpus import CQRSample, Turn
from icr.errors import MalformedTrajectory
from icr.sftdata import (
    Span,
    emit_sft_dataset,
    epoch_mask,
    epoch_masks,
    label_spans,
    sft_record,
)


def test_label_spans_offsets_recomputed_mechanically():
    text = "[Clarification] a [Rewrite] b"
    # recompute the expected offsets from the literal string
    c_end = len("[Clarification] a")
    r_start = text.index("[Rewrite]")
    spans = label_spans(text)
    assert spans == [
        Span(0, c_end, "clarification"),
        Span(c_end, r_start, "other"),
        Span(r_start, len(text), "rewrite"),
    ]
    assert spans == [
        Span(0, 17, "clarification"),
        Span(17, 18, "other"),
        Span(18, 29, "rewrite"),
    ]


def test_label_spans_empty():
    assert label_spans("") == []


def test_label_spans_markerless_is_malformed():
    with pytest.raises(MalformedTrajectory):
        label_spans("no markers here")


def test_label_spans_requires_alternation():
    with pytest.raises(MalformedTrajectory):
        label_spans("[Rewrite] b [Clarification] a")
    with pytest.raises(MalformedTrajectory):
        label_spans("[Clarification] a [Rewrite] b [Clarification] dangling")
    with pytest.raises(MalformedTrajectory):
        label_spans("leading junk [Clarification] a [Rewrite] b")


def test_span_tiling_reconstructs_text():
    text = "[Clarification] who is he? [Rewrite] who is drew? [Clarification] which drew? [Rewrite] who is drew scott?"
    spans = label_spans(text)
    assert "".join(s.text_of(text) for s in spans) == text
    assert [s.span_type for s in spans if s.span_type != "other"] == [
        "clarification", "rewrite", "clarification", "rewrite",
    ]


def test_typed_span_count_is_two_per_step():
    one = "[Clarification] c [Rewrite] r"
    three = " ".join([one] * 3)
    typed = [s for s in label_spans(three) if s.span_type != "other"]
    assert len(typed) == 6


def test_epoch_mask_schedule():
    assert epoch_mask("rewrite", 1) == 0
    assert epoch_mask("clarification", 2) == 0
    assert epoch_mask("rewrite", 3) == 1
    assert epoch_mask("clarification", 1) == 1
    assert epoch_mask("clarification", 3) == 1
    assert epoch_mask("rewrite", 2) == 1
    for epoch in (1, 2, 3):
        assert epoch_mask("other", epoch) == 1


def test_epoch_mask_validation():
    with pytest.raises(ValueError):
        epoch_mask("rewrite", 4)
    with pytest.raises(ValueError):
        epoch_mask("mystery", 1)


def test_mask_complementarity():
    text = "[Clarification] a [Rewrite] b [Clarification] c [Rewrite] d"
    spans = label_spans(text)
    masks = epoch_masks(spans)
    masked1 = {i for i, m in enumerate(masks[1]) if m == 0}
    masked2 = {i for i, m in enumerate(masks[2]) if m == 0}
    typed = {i for i, s in enumerate(spans) if s.span_type != "other"}
    assert masked1 & masked2 == set()
    assert masked1 | masked2 == typed
    assert all(m == 1 for m in masks[3])


def test_sft_record_fields():
    sample = CQRSample("s1", [Turn("q1", "a1")], "q2", {"p1"})
    rec = sft_record(sample, "[Clarification] c [Rewrite] r")
    assert rec.input == "Q: q1\nA: a1\nQ: q2"
    assert rec.target == "[Clarification] c [Rewrite] r"
    d = rec.as_dict()
    assert set(d["epoch_masks"]) == {"1", "2", "3"}
    assert d["spans"][0] == {"start": 0, "end": 17, "type": "clarification"}


def test_emit_skips_empty_and_counts(tmp_path):
    samples = [
        CQRSample("s1", [], "q", {"p"}),
        CQRSample("s2", [], "q", {"p"}),
        CQRSample("s3", [], "q", {"p"}),
    ]
    records = [
        {"sample_id": "s1", "serialized": "[Clarification] a [Rewrite] b"},
        {"sample_id": "s2", "serialized": ""},
        {"sample_id": "s3", "serialized": "[Clarification] c [Rewrite] d"},
    ]
    out = tmp_path / "sft.jsonl"
    stats = emit_sft_dataset(records, samples, str(out))
    assert stats.written == 2
    assert stats.skipped_empty == 1
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [l["sample_id"] for l in lines] == ["s1", "s3"]
    for line in lines:
        assert all(m == 1 for m in line["epoch_masks"]["3"])
        spans = line["spans"]
        masked1 = {i for i, m in enumerate(line["epoch_masks"]["1"]) if m == 0}
        masked2 = {i for i, m in enumerate(line["epoch_masks"]["2"]) if m == 0}
        typed = {i for i, s in enumerate(spans) if s["type"] != "other"}
        assert masked1 & masked2 == set()
        assert masked1 | masked2 == typed


def test_emit_skips_error_records(tmp_path):
    samples = [CQRSample("s1", [], "q", {"p"})]
    records = [{"sample_id": "sX", "error": "gold missing"}]
    out = tmp_path / "sft.jsonl"
    stats = emit_sft_dataset(records, samples, str(out))
    assert stats.written == 0
    assert stats.skipped_errors == 1


def test_emit_skips_provider_failures(tmp_path):
    # a trajectory cut short by an outage is not training data, even when it has steps
    samples = [CQRSample("s1", [], "q", {"p"}), CQRSample("s2", [], "q", {"p"})]
    records = [
        {"sample_id": "s1", "serialized": "[Clarification] a [Rewrite] b", "stop_reason": "provider_failure"},
        {"sample_id": "s2", "serialized": "[Clarification] c [Rewrite] d", "stop_reason": "early_stop"},
    ]
    out = tmp_path / "sft.jsonl"
    stats = emit_sft_dataset(records, samples, str(out))
    assert (stats.written, stats.skipped_empty, stats.skipped_errors) == (1, 0, 1)
    assert [json.loads(l)["sample_id"] for l in out.read_text().splitlines()] == ["s2"]

"""Span labeling and per-epoch loss masks for staged fine-tuning data.

Serialized trajectories are tiled into typed character spans: each
``[Clarification] ...`` segment (marker plus text, trailing whitespace
excluded) is one clarification span, each ``[Rewrite] ...`` segment one
rewrite span, and inter-segment whitespace is ``other``. Marker literals
inherit the type of the segment they introduce.

The three-epoch schedule masks rewrite spans in epoch 1, clarification
spans in epoch 2, and nothing in epoch 3 (mask 1 = keep the loss, 0 =
mask it out). Spans are character offsets rather than token positions so
any trainer can project them onto its own vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import CQRSample, _jsonl_line, replacing
from .crdg import _SEGMENT_RE, CLARIFICATION_MARKER, REWRITE_MARKER, _is_good
from .errors import DataError, MalformedTrajectory
from .genclient import render_conversation

SPAN_CLARIFICATION = "clarification"
SPAN_REWRITE = "rewrite"
SPAN_OTHER = "other"

EPOCHS = (1, 2, 3)


@dataclass(frozen=True)
class Span:
    start: int
    end: int
    span_type: str

    def text_of(self, serialized: str) -> str:
        return serialized[self.start : self.end]


def label_spans(serialized: str) -> list[Span]:
    """Tile a serialized trajectory into typed spans.

    Raises MalformedTrajectory when the marker structure is not an
    alternating clarification/rewrite sequence starting at offset 0.
    """
    if serialized == "":
        return []
    segments = list(_SEGMENT_RE.finditer(serialized))
    if not segments:
        raise MalformedTrajectory("no segment markers found")
    if segments[0].start() != 0:
        raise MalformedTrajectory("text before the first segment marker")
    spans: list[Span] = []
    for i, m in enumerate(segments):
        expected = (CLARIFICATION_MARKER, REWRITE_MARKER)[i % 2]
        if m.group(1) != expected:
            raise MalformedTrajectory(f"expected a {expected} segment at offset {m.start()}")
        content_end = m.start() + len(m.group().rstrip())
        span_type = SPAN_CLARIFICATION if expected == CLARIFICATION_MARKER else SPAN_REWRITE
        spans.append(Span(m.start(), content_end, span_type))
        if content_end < m.end():
            spans.append(Span(content_end, m.end(), SPAN_OTHER))
    if segments[-1].group(1) != REWRITE_MARKER:
        raise MalformedTrajectory("trajectory ends with a dangling clarification")
    return spans


def epoch_mask(span_type: str, epoch: int) -> int:
    """0 masks the span's loss out at that epoch, 1 keeps it."""
    if epoch not in EPOCHS:
        raise ValueError(f"epoch must be one of {EPOCHS}, got {epoch}")
    if span_type not in (SPAN_CLARIFICATION, SPAN_REWRITE, SPAN_OTHER):
        raise ValueError(f"unknown span type {span_type!r}")
    if span_type == SPAN_REWRITE and epoch == 1:
        return 0
    if span_type == SPAN_CLARIFICATION and epoch == 2:
        return 0
    return 1


def epoch_masks(spans: Sequence[Span]) -> dict[int, list[int]]:
    return {e: [epoch_mask(s.span_type, e) for s in spans] for e in EPOCHS}


@dataclass
class SftRecord:
    sample_id: str
    input: str
    target: str
    spans: list[Span]
    epoch_masks: dict[int, list[int]]

    def as_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "input": self.input,
            "target": self.target,
            "spans": [{"start": s.start, "end": s.end, "type": s.span_type} for s in self.spans],
            "epoch_masks": {str(e): m for e, m in self.epoch_masks.items()},
        }


def sft_record(sample: CQRSample, serialized: str) -> SftRecord:
    spans = label_spans(serialized)
    return SftRecord(
        sample_id=sample.sample_id,
        input=render_conversation(sample.history, sample.query),
        target=serialized,
        spans=spans,
        epoch_masks=epoch_masks(spans),
    )


@dataclass
class SftStats:
    written: int = 0
    skipped_empty: int = 0
    skipped_errors: int = 0


def emit_sft_dataset(
    crdg_records: Sequence[Mapping],
    samples: Sequence[CQRSample],
    out_path: str,
) -> SftStats:
    """One record per non-empty trajectory; empty ones are counted and skipped,
    and so are error records and ``provider_failure`` trajectories (as errors).

    Training with only the epoch-3 masks reproduces plain single-schedule
    fine-tuning, so no separate emitter exists for that ablation.
    """
    by_id = {s.sample_id: s for s in samples}
    stats = SftStats()
    with replacing(out_path) as temp, open(temp, "w", encoding="utf-8") as fh:
        for record in crdg_records:
            if not _is_good(record):
                stats.skipped_errors += 1
                continue
            serialized = record["serialized"]
            if not serialized:
                stats.skipped_empty += 1
                continue
            sample = by_id.get(record["sample_id"])
            if sample is None:
                raise DataError(f"sample {record['sample_id']!r} not found in dataset")
            rec = sft_record(sample, serialized)
            fh.write(_jsonl_line(rec.as_dict()))
            stats.written += 1
    return stats

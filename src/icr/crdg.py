"""Iterative clarification-rewriting trajectory construction.

Each round samples a clarification for the current best query and a
rewrite conditioned on it, scores the rewrite's retrieval quality, and
accepts the step only when the score strictly improves on the best seen so
far (which starts at the original query's score). A round may resample a
bounded number of times; a round where no attempt improves counts as one
consecutive failure, and the loop stops after ``early_stop`` consecutive
failed rounds or ``max_iters`` rounds total. Failed attempts are never
appended, so accepted trajectories have strictly increasing quality.

Serialized form: ``[Clarification] c [Rewrite] r`` segments joined by
single spaces, which is also what the trained generator is expected to
emit at inference time.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .config import CrdgConfig
from .corpus import CQRSample, _jsonl_line, _require, read_jsonl, replacing
from .errors import DataError, MalformedRecord, ProviderError, ProviderUnavailable
from .evaluation import Indexes, QualityScore, f_score, quality_from_dict
from .genclient import generate_clarification, generate_rewrite, run_in_order

CLARIFICATION_MARKER = "[Clarification]"
REWRITE_MARKER = "[Rewrite]"

STOP_EARLY = "early_stop"
STOP_MAX_ITERATIONS = "max_iterations"
STOP_PROVIDER_FAILURE = "provider_failure"

# What sftdata, prefdata and analyze read from a trajectory record.
_RECORD_FIELDS = ("sample_id", "original_query", "f0", "steps", "serialized", "stop_reason")

_MARKERS = "|".join(map(re.escape, (CLARIFICATION_MARKER, REWRITE_MARKER)))
_MARKER_RE = re.compile(_MARKERS)
# One match per segment: group 1 is its marker, group 2 its payload, and the
# segment runs to the next marker or the end of the text.
_SEGMENT_RE = re.compile(f"({_MARKERS})(.*?)(?={_MARKERS}|\\Z)", re.DOTALL)


@dataclass
class TrajectoryStep:
    clarification: str
    rewrite: str
    f_score: QualityScore
    attempt_count: int = 1


@dataclass
class Trajectory:
    sample_id: str
    original_query: str
    f0: QualityScore
    steps: list[TrajectoryStep] = field(default_factory=list)
    stop_reason: str = STOP_MAX_ITERATIONS

    def f_path(self) -> list[float]:
        """Quality path [F(r^0), F(r^1), ...] starting at the original query."""
        return [self.f0.f] + [s.f_score.f for s in self.steps]

    def final_rewrite(self) -> str:
        return self.steps[-1].rewrite if self.steps else self.original_query


def generate_trajectory(
    sample: CQRSample,
    client,
    indexes: Indexes,
    config: CrdgConfig,
) -> Trajectory:
    """Run the acceptance loop for one sample.

    A provider outage ends the trajectory with ``provider_failure`` and
    whatever accepted steps exist; empty generations consume resample
    attempts like any other failed attempt.
    """
    score = _scorer(sample, indexes, config)
    f0 = score(sample.query)
    traj = Trajectory(sample.sample_id, sample.query, f0)
    failures = 0
    for _round in range(config.max_iters):
        best = traj.f_path()[-1]
        try:
            step = _next_step(client, sample, traj.final_rewrite(), config.resample_budget, score, lambda f: f > best)
        except ProviderUnavailable:
            traj.stop_reason = STOP_PROVIDER_FAILURE
            return traj
        if step is not None:
            traj.steps.append(step)
            failures = 0
        else:
            failures += 1
            if failures >= config.early_stop:
                traj.stop_reason = STOP_EARLY
                return traj
    traj.stop_reason = STOP_MAX_ITERATIONS
    return traj


def _scorer(sample: CQRSample, indexes: Indexes, config: CrdgConfig) -> Callable[[str], QualityScore]:
    """F of a text for one sample, computed once per distinct text: failed
    rounds and echoed rewrites re-score the same text often."""
    return functools.cache(lambda text: f_score(text, sample, indexes, config.f_mode))


def _next_step(client, sample: CQRSample, current: str, budget: int, score=None, accept=None) -> TrajectoryStep | None:
    """One clarify-then-rewrite step from ``current``, resampled up to
    ``budget`` times until ``accept`` holds for the rewrite's F under
    ``score``; None when no attempt is accepted. Without ``score`` every
    usable rewrite is accepted, and the step carries no F.

    An empty generation uses up its attempt, and so does one holding a
    marker, which the serialized trajectory could not tell from its own;
    errors propagate.
    """
    for attempt in range(budget + 1):
        clarification = generate_clarification(client, current, attempt)
        if not _usable(clarification):
            continue
        rewrite = generate_rewrite(client, sample.history, current, clarification, attempt)
        if not _usable(rewrite):
            continue
        quality = score(rewrite) if score else None
        if quality is None or accept(quality.f):
            return TrajectoryStep(clarification, rewrite, quality, attempt + 1)
    return None


def _usable(generation: str) -> bool:
    return bool(generation) and not _MARKER_RE.search(generation)


def _format_pairs(pairs: Iterable[tuple[str, str]]) -> str:
    """The serialized form of (clarification, rewrite) pairs."""
    return " ".join(f"{CLARIFICATION_MARKER} {c} {REWRITE_MARKER} {r}" for c, r in pairs)


def serialize_trajectory(trajectory: Trajectory) -> str:
    return _format_pairs((s.clarification, s.rewrite) for s in trajectory.steps)


@dataclass
class ParsedTrajectory:
    pairs: list[tuple[str, str]]
    warnings: int = 0


def parse_trajectory(text: str) -> ParsedTrajectory:
    """Greedy left-to-right scan for clarification/rewrite segment pairs.

    Inverse of serialization on well-formed input. Robust to malformed
    text: a rewrite with no pending clarification and a clarification with
    no following rewrite are dropped, each counted as one warning.
    """
    pairs: list[tuple[str, str]] = []
    warnings = 0
    pending: str | None = None
    for m in _SEGMENT_RE.finditer(text):
        payload = m.group(2).strip()
        if m.group(1) == CLARIFICATION_MARKER:
            if pending is not None:
                warnings += 1
            pending = payload
        else:
            if pending is None:
                warnings += 1
                continue
            pairs.append((pending, payload))
            pending = None
    if pending is not None:
        warnings += 1
    return ParsedTrajectory(pairs, warnings)


def trajectory_to_record(trajectory: Trajectory) -> dict:
    return {
        "sample_id": trajectory.sample_id,
        "original_query": trajectory.original_query,
        "f0": trajectory.f0.as_dict(),
        "steps": [
            {
                "clarification": s.clarification,
                "rewrite": s.rewrite,
                "f": s.f_score.as_dict(),
                "attempts": s.attempt_count,
            }
            for s in trajectory.steps
        ],
        "serialized": serialize_trajectory(trajectory),
        "stop_reason": trajectory.stop_reason,
        "empty": not trajectory.steps,
    }


def trajectory_from_record(record: dict) -> Trajectory:
    return Trajectory(
        sample_id=record["sample_id"],
        original_query=record["original_query"],
        f0=quality_from_dict(record["f0"]),
        steps=[
            TrajectoryStep(
                clarification=s["clarification"],
                rewrite=s["rewrite"],
                f_score=quality_from_dict(s["f"]),
                attempt_count=int(s.get("attempts", 1)),
            )
            for s in record["steps"]
        ],
        stop_reason=record["stop_reason"],
    )


def read_crdg_records(path: str) -> list[dict]:
    """Every record of a dataset file; a good record must carry every
    trajectory field that later stages read."""
    return [record for record, _ in _read_crdg(path)]


def _read_crdg(path: str) -> list[tuple[dict, Trajectory | None]]:
    """Every record of a dataset file with its trajectory, None for a record
    that is not good.

    Raises:
        MissingField: a good record lacks a trajectory field.
        MalformedRecord: a good record's nested fields cannot be read.
    """
    out = []
    for line_no, record in read_jsonl(path):
        trajectory = None
        if _is_good(record):
            for name in _RECORD_FIELDS:
                _require(record, name, path, line_no)
            try:
                trajectory = trajectory_from_record(record)
            except (KeyError, TypeError, ValueError) as e:
                raise MalformedRecord(path, line_no, f"unreadable trajectory field: {e!r}") from None
            if not isinstance(record["serialized"], str):
                raise MalformedRecord(path, line_no, f"serialized {record['serialized']!r} is not a string")
        out.append((record, trajectory))
    return out


def _is_good(record: Mapping) -> bool:
    """Whether a dataset record is a trajectory later stages may use: not an
    error record, and not cut short by a provider outage."""
    return "error" not in record and record.get("stop_reason") != STOP_PROVIDER_FAILURE


def load_trajectories(path: str) -> list[Trajectory]:
    """Trajectories from a dataset file, skipping error records and
    ``provider_failure`` trajectories."""
    return [trajectory for _, trajectory in _read_crdg(path) if trajectory is not None]


@dataclass
class BuildStats:
    written: int = 0
    skipped: int = 0
    errors: int = 0


def build_crdg_dataset(
    samples: Sequence[CQRSample],
    client,
    indexes: Indexes,
    config: CrdgConfig,
    out_path: str,
) -> BuildStats:
    """Write one JSONL trajectory record per sample, in input order.

    Per-sample data errors (e.g. gold passages missing from the
    collection) become records with an ``error`` field instead of aborting
    the run. The output file doubles as the completion log: on rerun,
    samples with a good record are skipped, so an interrupted build resumes
    where it stopped, and samples whose record is an error or a
    ``provider_failure`` trajectory run again. Samples run concurrently up
    to the client's ``max_in_flight``. With a deterministic client the
    output is byte-reproducible for a fixed config.
    """
    stats = BuildStats()
    done = _resume(out_path)
    todo = []
    for sample in samples:
        if sample.sample_id in done:
            stats.skipped += 1
        else:
            todo.append(sample)

    def build(client, sample: CQRSample) -> dict:
        try:
            return trajectory_to_record(generate_trajectory(sample, client, indexes, config))
        except (DataError, ProviderError) as e:
            return {"sample_id": sample.sample_id, "error": str(e)}

    with open(out_path, "a", encoding="utf-8") as fh:
        for record in run_in_order(client, build, todo):
            stats.errors += "error" in record
            fh.write(_jsonl_line(record))
            fh.flush()
            stats.written += 1
    return stats


def _resume(out_path: str) -> set[str]:
    """Sample ids with a good record in an earlier run's output.

    Only intact good records are kept, in order: a partial trailing line
    left by an interrupted run (and anything after it), error records and
    ``provider_failure`` trajectories are dropped, rewriting the file
    atomically, so their samples run again. Blank lines are skipped, as
    ``read_jsonl`` skips them.
    """
    done: set[str] = set()
    if not os.path.exists(out_path):
        return done
    kept: list[bytes] = []
    dropped = False
    with open(out_path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line) if line.endswith(b"\n") else None
            except ValueError:
                record = None
            if record is None:
                dropped = True
                break
            if not isinstance(record, dict):
                raise MalformedRecord(out_path, line_no, "expected a JSON object")
            if not _is_good(record):
                dropped = True
                continue
            done.add(_require(record, "sample_id", out_path, line_no))
            kept.append(line)
    if dropped:
        with replacing(out_path) as temp, open(temp, "wb") as fh:
            fh.writelines(kept)
    return done

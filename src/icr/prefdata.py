"""Preference-pair construction for process alignment.

Rejected trajectories are derived from accepted ones along three
dimensions:

  ot  overthinking: extra redundant steps are sampled after the last
      accepted rewrite and kept only if quality does not improve
      (optionally several consecutive redundant steps, quality
      non-increasing across them);
  ut  underthinking: the trajectory is truncated at a random position
      strictly before its end;
  id  insufficient decomposition: two adjacent steps are merged into one
      whose clarification is the concatenation of both and whose rewrite
      is the later step's.

Truncation and merging need at least two steps, so shorter trajectories
yield no ut/id pairs; a transform that cannot be built returns None.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Sequence

from .config import CrdgConfig
from .corpus import CQRSample, _jsonl_line, replacing
from .crdg import Trajectory, TrajectoryStep, _next_step, _scorer, serialize_trajectory
from .errors import DataError, ProviderError
from .evaluation import Indexes
from .genclient import render_conversation, run_in_order


@dataclass
class PreferencePair:
    sample_id: str
    context: str
    chosen: str
    rejected: str
    dimension: str
    meta: dict
    f_chosen_last: float
    f_rejected_last: float

    def as_dict(self) -> dict:
        return asdict(self)


def _redundant_steps(multi: bool, rng: random.Random) -> int:
    return rng.choice([1, 2, 3, 4]) if multi else 1


def extend_redundantly(
    trajectory: Trajectory,
    sample: CQRSample,
    client,
    indexes: Indexes,
    config: CrdgConfig,
    k: int,
) -> Trajectory | None:
    """Append ``k`` redundant steps to a non-empty trajectory; None if not
    constructible.

    Each appended step is resampled up to the configured budget until its
    quality does not exceed the previous step's. F is computed once per
    distinct rewrite text.
    """
    score = _scorer(sample, indexes, config)
    steps = list(trajectory.steps)
    for _ in range(k):
        bound = steps[-1].f_score.f
        step = _next_step(client, sample, steps[-1].rewrite, config.resample_budget, score, lambda f: f <= bound)
        if step is None:
            return None
        steps.append(step)
    return replace(trajectory, steps=steps)


def make_underthinking(trajectory: Trajectory, rng: random.Random) -> tuple[Trajectory, int] | None:
    """Truncate at a random position in [1, n-1]; None when n < 2."""
    n = len(trajectory.steps)
    if n < 2:
        return None
    e = rng.randint(1, n - 1)
    return replace(trajectory, steps=trajectory.steps[:e]), e


def make_insufficient_decomposition(
    trajectory: Trajectory, rng: random.Random
) -> tuple[Trajectory, int] | None:
    """Merge steps j and j+1 (j drawn from [1, n-1]); None when n < 2.

    The merged step carries both clarifications joined by a single space
    and the later step's rewrite and quality.
    """
    n = len(trajectory.steps)
    if n < 2:
        return None
    j = rng.randint(1, n - 1)
    left = trajectory.steps[j - 1]
    right = trajectory.steps[j]
    merged = TrajectoryStep(
        clarification=f"{left.clarification} {right.clarification}",
        rewrite=right.rewrite,
        f_score=right.f_score,
        attempt_count=right.attempt_count,
    )
    steps = trajectory.steps[: j - 1] + [merged] + trajectory.steps[j + 1 :]
    return replace(trajectory, steps=steps), j


def _pair(
    trajectory: Trajectory,
    context: str,
    rejected: Trajectory,
    dimension: str,
    meta: dict,
) -> PreferencePair:
    return PreferencePair(
        sample_id=trajectory.sample_id,
        context=context,
        chosen=serialize_trajectory(trajectory),
        rejected=serialize_trajectory(rejected),
        dimension=dimension,
        meta=meta,
        f_chosen_last=trajectory.steps[-1].f_score.f,
        f_rejected_last=rejected.steps[-1].f_score.f,
    )


@dataclass
class PrefStats:
    ot: int = 0
    ut: int = 0
    id: int = 0
    not_constructible: int = 0
    errors: int = 0

    @property
    def total(self) -> int:
        return self.ot + self.ut + self.id


class _Plan(NamedTuple):
    """One trajectory's random draws: the number of overthinking steps
    (0 when it has none) and its ut and id transforms."""

    trajectory: Trajectory
    sample: CQRSample | None
    ot_steps: int
    ut: tuple[Trajectory, int] | None
    ins: tuple[Trajectory, int] | None


def build_pref_dataset(
    trajectories: Sequence[Trajectory],
    samples: Sequence[CQRSample],
    client,
    indexes: Indexes,
    config: CrdgConfig,
    out_path: str,
    seed: int = 0,
    multi_ot: bool = False,
) -> PrefStats:
    """Emit preference pairs as JSONL, one ot per trajectory with steps
    (when constructible) and one ut and id per trajectory with >= 2 steps.

    Per-record failures become JSONL records with an ``error`` field and
    the run continues. Deterministic for a fixed seed and client: every
    random draw depends only on a trajectory's step count, so all of them
    are made first, in trajectory order, and only the overthinking
    generation runs concurrently (up to the client's ``max_in_flight``).
    """
    by_id = {s.sample_id: s for s in samples}
    rng = random.Random(seed)
    plans: list[_Plan] = []
    for trajectory in trajectories:
        sample = by_id.get(trajectory.sample_id)
        if sample is None:
            plans.append(_Plan(trajectory, None, 0, None, None))
            continue
        k = _redundant_steps(multi_ot, rng) if trajectory.steps else 0
        ut = make_underthinking(trajectory, rng)
        ins = make_insufficient_decomposition(trajectory, rng)
        plans.append(_Plan(trajectory, sample, k, ut, ins))

    def overthink(client, plan: _Plan) -> Trajectory | Exception | None:
        if not plan.ot_steps:
            return None
        try:
            return extend_redundantly(plan.trajectory, plan.sample, client, indexes, config, plan.ot_steps)
        except (DataError, ProviderError) as e:
            return e

    stats = PrefStats()
    with replacing(out_path) as temp, open(temp, "w", encoding="utf-8") as fh:

        def emit(obj: dict) -> None:
            fh.write(_jsonl_line(obj))

        for plan, ot in zip(plans, run_in_order(client, overthink, plans)):
            trajectory, sample = plan.trajectory, plan.sample
            if sample is None:
                emit({"sample_id": trajectory.sample_id, "error": "sample not found in dataset"})
                stats.errors += 1
                continue
            context = render_conversation(sample.history, sample.query)
            if plan.ot_steps:
                if isinstance(ot, Exception):
                    emit({"sample_id": trajectory.sample_id, "dimension": "ot", "error": str(ot)})
                    stats.errors += 1
                    ot = None
                if ot is not None:
                    extra = len(ot.steps) - len(trajectory.steps)
                    emit(_pair(trajectory, context, ot, "ot", {"k": extra}).as_dict())
                    stats.ot += 1
                else:
                    stats.not_constructible += 1
            if plan.ut is not None:
                rejected, e = plan.ut
                emit(_pair(trajectory, context, rejected, "ut", {"e": e}).as_dict())
                stats.ut += 1
            if plan.ins is not None:
                rejected, j = plan.ins
                emit(_pair(trajectory, context, rejected, "id", {"j": j}).as_dict())
                stats.id += 1
    return stats

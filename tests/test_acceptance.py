"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them). Tolerances and budgets are pinned here, not configurable."""

from __future__ import annotations

import functools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from icr.cli import main
from icr.corpus import CQRSample
from icr.crdg import CrdgConfig, build_crdg_dataset, generate_trajectory
from icr.evaluation import Indexes, gsr, lsr, metric_set
from icr.fusion import FusionConfig, fuse
from icr.genclient import ScriptedMock, clarify_fingerprint, rewrite_fingerprint
from icr.manifest import load_manifest
from icr.pipeline import InferenceConfig, retrieve_and_fuse
from icr.prefdata import make_insufficient_decomposition, make_underthinking
from icr.ranking import RankedList
from icr.sftdata import sft_record
from icr.sparse_index import Bm25Params, build_sparse_index, search_sparse, tokenize

from .conftest import (
    build_cli_workspace,
    improve_then_plateau,
    improving_script,
    plateau_script,
    tier_query,
)
from .oracles import oracle_bm25_topk, oracle_mrr, oracle_ndcg3, oracle_recall
from .support import make_overthinking
from .test_pipeline import FIG_QUERIES, make_fig_corpus
from .test_prefdata import _trajectory


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def _ranked(ids):
    return RankedList("q", [(pid, float(len(ids) - i)) for i, pid in enumerate(ids)])


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence on 1000 random instances (<= 1e-9, < 10 s)"):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(1000):
            n = rng.randint(0, 200)
            ids = [f"d{i:03d}" for i in range(n)]
            rng.shuffle(ids)
            judged: dict[str, int] = {}
            for pid in rng.sample(ids, k=min(n, rng.randint(0, 12))):
                judged[pid] = rng.randint(0, 3)
            for _ in range(rng.randint(0, 3)):
                judged[f"unretrieved{rng.randint(0, 50)}"] = rng.randint(0, 3)
            relevant = {pid for pid, g in judged.items() if g >= 1}
            got = metric_set(_ranked(ids), relevant, judged)
            assert abs(got.mrr - oracle_mrr(ids, relevant)) <= 1e-9
            assert abs(got.ndcg3 - oracle_ndcg3(ids, judged)) <= 1e-9
            assert abs(got.recall10 - oracle_recall(ids, relevant, 10)) <= 1e-9
            assert abs(got.recall100 - oracle_recall(ids, relevant, 100)) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_bm25_oracle_equivalence():
    with criterion(2, "BM25 oracle equivalence on 200 random corpora (<= 1e-9, < 30 s)"):
        from icr.corpus import Passage

        rng = random.Random(202)
        start = time.perf_counter()
        profiles = [Bm25Params(0.9, 0.4), Bm25Params(0.82, 0.68)]
        for trial in range(200):
            vocab = [f"t{i}" for i in range(rng.randint(3, 15))]
            n = rng.randint(1, 50)
            passages = [
                Passage(f"d{i:03d}", " ".join(rng.choices(vocab, k=rng.randint(0, 12))))
                for i in range(n)
            ]
            if not any(p.text for p in passages):
                continue
            params = profiles[trial % 2] if trial % 3 else Bm25Params(
                k1=rng.uniform(0, 2), b=rng.uniform(0, 1)
            )
            index = build_sparse_index(passages, params)
            query_tokens = rng.choices(vocab + ["zzz"], k=rng.randint(1, 8))
            k = rng.randint(1, n + 5)
            got = search_sparse(index, " ".join(query_tokens), k)
            expected = oracle_bm25_topk(
                [p.id for p in passages],
                [tokenize(p.text) for p in passages],
                query_tokens,
                params.k1,
                params.b,
                k,
            )
            assert got.ids() == [pid for pid, _ in expected], "order mismatch"
            for (_, gs), (_, es) in zip(got.entries, expected):
                assert abs(gs - es) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_fusion_formula_fidelity():
    with criterion(3, "fusion formula fidelity (hand-evaluated 2-list example, k=60)"):
        l1 = _ranked(["pA", "pB"])
        l2 = _ranked(["pB", "pA"])
        prrf = fuse([l1, l2], FusionConfig(k=60, mode="prrf", depth=100))
        scores = dict(prrf.entries)
        assert scores["pA"] == pytest.approx(1 / 61 + 2 / 62, abs=1e-12)
        assert scores["pB"] == pytest.approx(1 / 62 + 2 / 61, abs=1e-12)
        assert prrf.ids() == ["pB", "pA"]
        rrf = fuse([l1, l2], FusionConfig(k=60, mode="rrf", depth=100))
        rscores = dict(rrf.entries)
        assert rscores["pA"] == pytest.approx(rscores["pB"], abs=1e-15)
        assert rrf.ids() == ["pA", "pB"]  # tie broken by id
        single = _ranked(["x", "a", "m"])
        fused_single = fuse([single], FusionConfig(k=60, mode="prrf", depth=100))
        assert fused_single.ids() == single.ids()


def test_criterion_4_trajectory_control_flow(
    tier_sparse, tier_dense, tier_provider, tier_sample, tmp_path
):
    with criterion(4, "trajectory construction control flow (E=3, I=10, reproducible, < 5 s)"):
        start = time.perf_counter()
        config = CrdgConfig(early_stop=3, max_iters=10, resample_budget=3)

        # (a) strict monotonicity of accepted quality scores
        mock = improve_then_plateau(rounds=3, attempts=4)
        traj = generate_trajectory(tier_sample, mock, Indexes(tier_sparse, tier_dense, tier_provider), config)
        path = traj.f_path()
        assert len(traj.steps) == 3
        assert all(path[i - 1] < path[i] for i in range(1, len(path)))

        # (b) hard stop at I=10 rounds under an ever-improving generator
        mock = improving_script(rounds=11)
        traj = generate_trajectory(tier_sample, mock, Indexes(tier_sparse, tier_dense, tier_provider), config)
        assert len(traj.steps) == 10
        assert traj.stop_reason == "max_iterations"
        assert mock.calls == 10 * 2  # the 11th scripted round was never consulted

        # (c) early stop after exactly E=3 consecutive failed rounds
        mock = plateau_script(tier_sample.query, attempts=4)
        traj = generate_trajectory(tier_sample, mock, Indexes(tier_sparse, tier_dense, tier_provider), config)
        assert traj.steps == []
        assert traj.stop_reason == "early_stop"
        assert mock.calls == 3 * 4 * 2  # 3 rounds x (B+1) attempts x 2 calls

        # (d) byte-reproducible trajectory dataset
        samples = [tier_sample, CQRSample("s2", [], "kelpie", {"gold"})]

        def mock_factory():
            m = improve_then_plateau(rounds=3, attempts=4)
            return plateau_script("kelpie", attempts=4, mock=m)

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            build_crdg_dataset(
                samples, mock_factory(), Indexes(tier_sparse, tier_dense, tier_provider),
                config, str(out),
            )
        assert a.read_bytes() == b.read_bytes()

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_5_preference_transforms(tier_sparse, tier_dense, tier_provider, tier_sample):
    with criterion(5, "preference transforms structure over 500 random trajectories"):
        from icr.evaluation import f_score

        rng = random.Random(505)
        real_quality = {
            m: f_score(tier_query(m), tier_sample, Indexes(tier_sparse, tier_dense, tier_provider), "both")
            for m in range(1, 12)
        }
        # overthinking mock: odd tiers echo (delta 0), even tiers step down
        ot_mock = ScriptedMock()
        for m in range(1, 12):
            clar = f"redundant probe {m}?"
            target = tier_query(m) if m % 2 else tier_query(m - 1)
            ot_mock.add("clarify", clarify_fingerprint(tier_query(m)), clar)
            ot_mock.add("rewrite", rewrite_fingerprint(tier_query(m), clar), target)
        config = CrdgConfig()

        for _ in range(500):
            n = rng.randint(0, 6)
            m = rng.randint(1, 10)
            traj = _trajectory(
                n,
                last_rewrite=tier_query(m) if n else None,
                last_f=real_quality[m] if n else None,
            )

            ut = make_underthinking(traj, rng)
            ins = make_insufficient_decomposition(traj, rng)
            if n < 2:
                assert ut is None and ins is None
            else:
                truncated, e = ut
                assert 1 <= e <= n - 1
                assert truncated.steps == traj.steps[:e]
                assert len(truncated.steps) < n

                merged, j = ins
                assert 1 <= j <= n - 1
                assert len(merged.steps) == n - 1
                assert merged.steps[: j - 1] == traj.steps[: j - 1]
                assert merged.steps[j:] == traj.steps[j + 1 :]
                step = merged.steps[j - 1]
                assert step.clarification == (
                    traj.steps[j - 1].clarification + " " + traj.steps[j].clarification
                )
                assert step.rewrite == traj.steps[j].rewrite

            if n >= 1:
                ot = make_overthinking(
                    traj, tier_sample, ot_mock, Indexes(tier_sparse, tier_dense, tier_provider),
                    config, multi=bool(rng.getrandbits(1)), rng=rng,
                )
                assert ot is not None
                assert ot.steps[:n] == traj.steps
                appended = ot.steps[n:]
                assert 1 <= len(appended) <= 4
                bound = traj.steps[-1].f_score.f
                for step in appended:
                    assert step.f_score.f <= bound + 1e-12
                    bound = step.f_score.f


def test_criterion_6_sft_mask_schedule(tier_sparse, tier_dense, tier_provider, tier_sample):
    with criterion(6, "staged fine-tuning mask schedule and span tiling"):
        rng = random.Random(66)
        for _ in range(100):
            n = rng.randint(1, 6)
            parts = []
            for i in range(n):
                words = " ".join(rng.choices(["who", "what", "which", "drew", "scott"], k=rng.randint(1, 4)))
                parts.append(f"[Clarification] {words}? [Rewrite] {words} rewrite {i}")
            serialized = " ".join(parts)
            sample = CQRSample("sx", [], "query", {"gold"})
            rec = sft_record(sample, serialized)
            spans = rec.spans
            assert "".join(s.text_of(serialized) for s in spans) == serialized
            typed = [i for i, s in enumerate(spans) if s.span_type != "other"]
            assert len(typed) == 2 * n
            masks = rec.epoch_masks
            for i, s in enumerate(spans):
                if s.span_type == "rewrite":
                    assert masks[1][i] == 0
                if s.span_type == "clarification":
                    assert masks[2][i] == 0
            assert all(m == 1 for m in masks[3])
            masked1 = {i for i, m in enumerate(masks[1]) if m == 0}
            masked2 = {i for i, m in enumerate(masks[2]) if m == 0}
            assert masked1 & masked2 == set()
            assert masked1 | masked2 == set(typed)


def test_criterion_7_success_rates():
    with criterion(7, "success rates: GSR <= LSR everywhere; hand case 0.75 / 0.5"):
        assert lsr([[1, 2, 3], [1, 3, 2]]) == pytest.approx(0.75)
        assert gsr([[1, 2, 3], [1, 3, 2]]) == pytest.approx(0.5)
        rng = random.Random(77)
        for _ in range(500):
            paths = [
                [rng.uniform(0, 8) for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(1, 15))
            ]
            assert gsr(paths) <= lsr(paths) + 1e-12


def test_criterion_8_fusion_ordering_end_to_end():
    with criterion(8, "fused gold rank: prrf <= final_only <= rrf on the 20-doc corpus (< 5 s)"):
        start = time.perf_counter()
        index = build_sparse_index(make_fig_corpus())
        searcher = functools.partial(Indexes(index).search, "sparse")
        runs = [searcher(q, 100, "fig") for q in FIG_QUERIES]
        assert "gold" not in runs[0].ids()
        assert "gold" not in runs[1].ids()
        assert runs[2].ids()[0] == "gold"

        def fused_rank(mode: str) -> int:
            config = InferenceConfig(fusion=FusionConfig(mode=mode))
            _, fused, _ = retrieve_and_fuse(FIG_QUERIES, searcher, config, "fig", "orig")
            return fused.ids().index("gold") + 1

        prrf_rank = fused_rank("prrf")
        final_rank = fused_rank("final_only")
        rrf_rank = fused_rank("rrf")
        assert prrf_rank <= final_rank <= rrf_rank
        assert prrf_rank < rrf_rank
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_9_cli_reproducibility(tmp_path):
    with criterion(9, "byte-identical crdg/prefdata/sftdata/infer reruns with equal digests"):
        ws = build_cli_workspace(tmp_path / "data")

        def run_all(out_dir: Path) -> dict[str, Path]:
            out_dir.mkdir()
            sparse = str(out_dir / "sparse.idx.gz")
            dense = str(out_dir / "dense.idx")
            assert main(["build-index", "--collection", ws["collection"], "--out", sparse,
                         "--config", ws["config"]]) == 0
            assert main(["embed-index", "--collection", ws["collection"], "--out", dense,
                         "--config", ws["config"]]) == 0
            outputs = {
                "dcr.jsonl": out_dir / "dcr.jsonl",
                "pref.jsonl": out_dir / "pref.jsonl",
                "sft.jsonl": out_dir / "sft.jsonl",
                "run.trec": out_dir / "run.trec",
            }
            assert main(["crdg", "--dataset", ws["dataset"], "--sparse-index", sparse,
                         "--dense-index", dense, "--mock-script", ws["script"],
                         "--out", str(outputs["dcr.jsonl"]), "--config", ws["config"],
                         "--seed", "42"]) == 0
            assert main(["prefdata", "--crdg", str(outputs["dcr.jsonl"]),
                         "--dataset", ws["dataset"], "--sparse-index", sparse,
                         "--dense-index", dense, "--mock-script", ws["script"],
                         "--out", str(outputs["pref.jsonl"]), "--config", ws["config"],
                         "--seed", "42"]) == 0
            assert main(["sftdata", "--crdg", str(outputs["dcr.jsonl"]),
                         "--dataset", ws["dataset"], "--out", str(outputs["sft.jsonl"]),
                         "--config", ws["config"], "--seed", "42"]) == 0
            assert main(["infer", "--dataset", ws["dataset"], "--sparse-index", sparse,
                         "--mock-script", ws["script"], "--out", str(outputs["run.trec"]),
                         "--config", ws["config"], "--seed", "42"]) == 0
            return outputs

        first = run_all(tmp_path / "run1")
        second = run_all(tmp_path / "run2")
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes(), name
            m1 = load_manifest(str(first[name]) + ".manifest.json")
            m2 = load_manifest(str(second[name]) + ".manifest.json")
            d1 = {Path(p).name: d for p, d in m1["outputs"].items()}
            d2 = {Path(p).name: d for p, d in m2["outputs"].items()}
            assert d1 == d2, name

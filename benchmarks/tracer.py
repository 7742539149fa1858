"""Per-layer tracing from outside the program.

Every public function of the traced ``icr`` modules (and a few methods) is
replaced by a wrapper that records a span: its duration and the time spent
in the spans it caused. Modules import each other's names directly, so a
wrapper replaces the name in every module that holds it. Spans live in
memory and are summarised when the run ends. Self time is span time minus
child span time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

MODULES = (
    "corpus", "sparse_index", "dense_index", "ranking", "evaluation", "fusion", "genclient",
    "crdg", "prefdata", "sftdata", "pipeline", "manifest", "cli",
)
METHODS = (
    ("corpus", "Qrels", "for_sample"),
    ("corpus", "Qrels", "relevant_ids"),
    ("genclient", "ScriptedMock", "generate"),
    ("genclient", "RemoteChatClient", "generate"),
    ("manifest", "RunManifest", "write"),
)
# Leaf helpers called once per token, passage or ranked entry: wrapping them
# would cost more than the work they do and skew their callers' self time.
SKIP = {
    "sparse_index.tokenize", "evaluation.mrr", "evaluation.ndcg_at_3", "evaluation.recall_at_k",
    "genclient.render_conversation", "genclient.render_clarify_prompt", "genclient.render_rewrite_prompt",
    "genclient.clarify_fingerprint", "genclient.rewrite_fingerprint", "sftdata.epoch_mask",
    "cli.main", "cli.build_parser",
}


class Stat:
    __slots__ = ("calls", "total", "self", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.durations: list[float] = []


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[list[float]] = []
        self.stage = ""
        self.enabled = True
        self._scored: set[tuple[str, str]] = set()

    # --- recording ------------------------------------------------------------
    def begin_stage(self, name: str) -> None:
        self.stage = name
        self._scored.clear()

    def reset(self) -> None:
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(float)

    def _record(self, key: str, dt: float, child: float, new_call: bool = True) -> None:
        st = self.stats[key]
        if new_call:
            st.calls += 1
            st.durations.append(dt)
        st.total += dt
        st.self += dt - child

    def _observe(self, key: str, args, result) -> None:
        """Counters taken where the work happens."""
        c = self.counts
        if key == "ranking.ranked_from_scores":
            c["topk_candidates"] += len(args[1])
        elif key == "evaluation.f_score":
            pair = (args[1].sample_id, args[0])
            c["f_score_repeats"] += pair in self._scored
            self._scored.add(pair)
        elif key == "ranking.read_run":
            c["read_run_lines"] += sum(len(rl) for rl in result.values())
        elif key == "genclient.generate_clarification" and self.stage == "crdg":
            c["crdg_attempts"] += 1
        elif key == "crdg.generate_trajectory":
            c["crdg_accepted"] += len(result.steps)
        elif key == "prefdata.build_pref_dataset":
            c["pref_pairs"] += result.total
        elif key == "pipeline.run_batch":
            first = next(iter(result.values()), [])
            c["fallbacks"] += sum(1 for r in first if r.used_fallback)
        elif key == "crdg.parse_trajectory" and self.stage == "infer":
            c["parse_warnings"] += result.warnings
        elif key == "manifest.file_digest":
            c["bytes_hashed"] += os.path.getsize(args[0])

    def wrap(self, key: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    if not tracer.enabled:
                        yield from it
                        return
                    frame = [0.0]
                    tracer.stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = time.perf_counter() - t0
                        tracer.stack.pop()
                        if tracer.stack:
                            tracer.stack[-1][0] += dt
                        tracer._record(key, dt, frame[0], new_call=first)
                        first = False
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                tracer._record(key, dt, frame[0])
            tracer._observe(key, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # --- installation -----------------------------------------------------------
    def install(self) -> int:
        """Wrap every traced function in every icr module that refers to it."""
        mods = {name: importlib.import_module(f"icr.{name}") for name in MODULES}
        holders = [sys.modules["icr"]] + [m for n, m in sys.modules.items() if n.startswith("icr.")]
        wrapped = 0
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                key = f"{short}.{name}"
                if name.startswith("_") or key in SKIP or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                w = self.wrap(key, obj)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is obj:
                            setattr(holder, attr, w)
                wrapped += 1
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
            wrapped += 1
        return wrapped


def _p50_ms(st: Stat) -> float:
    return statistics.median(st.durations) * 1000.0 if st.durations else 0.0


def summarise(s: dict, r: dict, c: dict, n_setup: int, n_rounds: int, delay_ms: float) -> dict[str, float]:
    """Per-layer figures from set-up stats ``s`` (per set-up) and round stats
    ``r`` and counters ``c`` (per round)."""
    r = defaultdict(Stat, r)

    def per(stats, key, field, n):
        st = stats.get(key)
        return getattr(st, field) / n if st else 0.0

    def rr(key, field):
        return per(r, key, field, n_rounds)

    gen_calls = rr("genclient.ScriptedMock.generate", "calls") + rr("genclient.RemoteChatClient.generate", "calls")
    gen_wait = rr("genclient.ScriptedMock.generate", "total") + rr("genclient.RemoteChatClient.generate", "total")
    f_calls = rr("evaluation.f_score", "calls")
    attempts = c["crdg_attempts"] / n_rounds
    topk_calls = rr("ranking.ranked_from_scores", "calls")
    prefdata_self = sum(st.self for k, st in r.items() if k.startswith("prefdata.")) / n_rounds
    return {
        "corpus.load_collection_s": per(s, "corpus.load_collection", "total", n_setup),
        "sparse_index.build_s": per(s, "sparse_index.build_sparse_index", "self", n_setup),
        "sparse_index.save_s": per(s, "sparse_index.save_sparse_index", "total", n_setup),
        "dense_index.build_s": per(s, "dense_index.build_dense_index", "self", n_setup),
        "sparse_index.load_s": rr("sparse_index.load_sparse_index", "total"),
        "dense_index.load_s": rr("dense_index.load_dense_index", "total"),
        "sparse_index.search_calls": rr("sparse_index.search_sparse", "calls"),
        "sparse_index.search_self_s": rr("sparse_index.search_sparse", "self"),
        "sparse_index.search_p50_ms": _p50_ms(r["sparse_index.search_sparse"]),
        "dense_index.search_calls": rr("dense_index.search_dense", "calls"),
        "dense_index.search_self_s": rr("dense_index.search_dense", "self"),
        "dense_index.search_p50_ms": _p50_ms(r["dense_index.search_dense"]),
        "dense_index.embed_s": rr("dense_index.embed", "total"),
        "ranking.topk_calls": topk_calls,
        "ranking.topk_self_s": rr("ranking.ranked_from_scores", "self"),
        "ranking.topk_mean_candidates": c["topk_candidates"] / n_rounds / topk_calls if topk_calls else 0.0,
        "evaluation.f_score_calls": f_calls,
        "evaluation.f_score_self_s": rr("evaluation.f_score", "self"),
        "evaluation.f_score_repeat_share": c["f_score_repeats"] / n_rounds / f_calls if f_calls else 0.0,
        "corpus.load_qrels_s": rr("corpus.load_qrels", "total"),
        "corpus.qrels_lookup_s": rr("corpus.Qrels.for_sample", "total") + rr("corpus.Qrels.relevant_ids", "total"),
        "evaluation.evaluate_run_s": rr("evaluation.evaluate_run", "total"),
        "ranking.read_run_s": rr("ranking.read_run", "total"),
        "ranking.read_run_lines": c["read_run_lines"] / n_rounds,
        "ranking.write_run_s": rr("ranking.write_run", "total"),
        "fusion.fuse_calls": rr("fusion.fuse", "calls"),
        "fusion.fuse_self_s": rr("fusion.fuse", "self"),
        "cli.fuse_self_s": rr("cli.cmd_fuse", "self"),
        "genclient.calls": gen_calls,
        "genclient.wait_s": gen_wait,
        "genclient.overhead_ms": gen_wait / gen_calls * 1000.0 - delay_ms if gen_calls else 0.0,
        "crdg.attempts": attempts,
        "crdg.accepted_steps": c["crdg_accepted"] / n_rounds,
        "crdg.accept_ratio": c["crdg_accepted"] / n_rounds / attempts if attempts else 0.0,
        "crdg.loop_self_s": rr("crdg.generate_trajectory", "self"),
        "prefdata.pairs": c["pref_pairs"] / n_rounds,
        "prefdata.self_s": prefdata_self,
        "sftdata.emit_s": rr("sftdata.emit_sft_dataset", "total"),
        "pipeline.run_batch_self_s": rr("pipeline.run_batch", "self"),
        "pipeline.fallbacks": c["fallbacks"] / n_rounds,
        "pipeline.parse_warnings": c["parse_warnings"] / n_rounds,
        "manifest.write_s": rr("manifest.RunManifest.write", "total"),
        "manifest.mb_hashed": c["bytes_hashed"] / n_rounds / 1e6,
    }

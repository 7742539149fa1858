"""Checks of the program's outputs against the reference calculations and
against properties the method must have. Each check returns a list of
failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference as ref
from inputs import MAX_ITERS, RESAMPLE_BUDGET, ChainInputs

TOL = 1e-9
METRICS = ("mrr", "ndcg3", "recall10", "recall100")
# samples whose F values are recomputed: one of each plan
F_CHECK_SAMPLES = 8


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_trec(path: str) -> dict[str, list[tuple[str, float]]]:
    rows: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, pid, rank, score, _ = line.split()
            rows.setdefault(qid, []).append((int(rank), pid, float(score)))
    return {q: [(p, s) for _, p, s in sorted(r)] for q, r in rows.items()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _same_ranking(got: list[tuple[str, float]], want: list[tuple[str, float]]) -> bool:
    return [p for p, _ in got] == [p for p, _ in want] and all(
        _close(a, b) for (_, a), (_, b) in zip(got, want)
    )


def serialize(steps: list[tuple[str, str]]) -> str:
    return " ".join(f"[Clarification] {c} [Rewrite] {r}" for c, r in steps)


def expected_crdg_calls(record: dict, early_stop: int) -> int:
    """Generator calls the record implies: two per attempt, where accepted
    steps used ``attempts`` attempts and every failed round used all of them
    (failed rounds only follow the last accepted step in these scripts)."""
    steps = record["steps"]
    if record["stop_reason"] == "early_stop":
        failed_rounds = early_stop
    else:
        failed_rounds = MAX_ITERS - len(steps)
    return 2 * (sum(s["attempts"] for s in steps) + failed_rounds * (RESAMPLE_BUDGET + 1))


# --- crdg -------------------------------------------------------------------
def check_crdg(records: list[dict], inputs: ChainInputs) -> list[str]:
    bad = []
    by_id = {r["sample_id"]: r for r in records}
    if [r["sample_id"] for r in records] != [s.sample_id for s in inputs.samples]:
        return ["crdg: records do not cover the dataset in order"]
    for i, s in enumerate(inputs.samples):
        r = by_id[s.sample_id]
        if "error" in r:
            bad.append(f"crdg {s.sample_id}: error record {r['error']}")
            continue
        path = [r["f0"]["f"]] + [st["f"]["f"] for st in r["steps"]]
        if not all(b > a for a, b in zip(path, path[1:])):
            bad.append(f"crdg {s.sample_id}: F path does not strictly increase: {path}")
        if [st["rewrite"] for st in r["steps"]] != s.rewrites or [st["attempts"] for st in r["steps"]] != s.attempts:
            bad.append(f"crdg {s.sample_id}: accepted steps differ from the scripted plan")
        if r["stop_reason"] != s.stop:
            bad.append(f"crdg {s.sample_id}: stop {r['stop_reason']} where {s.stop} is due")
        if r["serialized"] != serialize([(st["clarification"], st["rewrite"]) for st in r["steps"]]):
            bad.append(f"crdg {s.sample_id}: serialized form does not match the steps")
        if r["empty"] != (not r["steps"]):
            bad.append(f"crdg {s.sample_id}: empty flag wrong")
        if i < F_CHECK_SAMPLES:
            gold = set(s.golds)
            for text, f in [(s.query, r["f0"])] + [(st["rewrite"], st["f"]) for st in r["steps"]]:
                want = inputs.collection.f_score(text, gold)
                if not _close(f["f"], want["f"]) or any(
                    not _close(f[side][m], want[side][m]) for side in ("sparse", "dense") for m in METRICS
                ):
                    bad.append(f"crdg {s.sample_id}: F of {text!r} is {f['f']}, reference {want['f']}")
    return bad


def check_calls(calls: dict[str, int], passes: int, records: list[dict], pairs: list[dict], inputs: ChainInputs, stage: str) -> list[str]:
    """Generator calls per sample over ``passes`` runs of one stage."""
    per_sample: dict[str, int] = {}
    for fp, n in calls.items():
        sid = inputs.fingerprint_sample.get(fp)
        if sid is None:
            return [f"{stage}: generator asked for an unscripted fingerprint {fp!r}"]
        per_sample[sid] = per_sample.get(sid, 0) + n
    bad = []
    for r in records:
        sid = r["sample_id"]
        if stage == "crdg":
            want = expected_crdg_calls(r, inputs.early_stop)
        elif stage == "prefdata":
            want = 2 * sum(1 for p in pairs if p["sample_id"] == sid and p["dimension"] == "ot")
        else:
            want = 1
        if per_sample.get(sid, 0) != want * passes:
            bad.append(f"{stage} {sid}: {per_sample.get(sid, 0)} generator calls in {passes} runs, records imply {want} per run")
    return bad


# --- prefdata ---------------------------------------------------------------
def check_prefdata(pairs: list[dict], records: list[dict], inputs: ChainInputs) -> list[str]:
    bad = []
    by_sample: dict[str, list[dict]] = {}
    for p in pairs:
        if "error" in p:
            bad.append(f"prefdata {p['sample_id']}: error record {p['error']}")
            continue
        by_sample.setdefault(p["sample_id"], []).append(p)
    samples = {s.sample_id: s for s in inputs.samples}
    for r in records:
        sid, steps = r["sample_id"], r["steps"]
        n = len(steps)
        got = sorted(p["dimension"] for p in by_sample.get(sid, []))
        want = sorted((["ot"] if n else []) + (["ut", "id"] if n >= 2 else []))
        if got != want:
            bad.append(f"prefdata {sid}: dimensions {got}, want {want}")
            continue
        s = samples[sid]
        context = "\n".join(
            [line for q, a in s.history for line in (f"Q: {q}", f"A: {a}")] + [f"Q: {s.query}"]
        )
        pairs_of = {p["dimension"]: p for p in by_sample.get(sid, [])}
        pc = [(st["clarification"], st["rewrite"]) for st in steps]
        fs = [st["f"]["f"] for st in steps]
        for dim, p in pairs_of.items():
            if p["chosen"] != r["serialized"] or p["context"] != context or p["f_chosen_last"] != fs[-1]:
                bad.append(f"prefdata {sid}/{dim}: chosen side is not the accepted trajectory")
        if "ot" in pairs_of:
            p = pairs_of["ot"]
            if not p["rejected"].startswith(p["chosen"] + " [Clarification] ") or p["meta"] != {"k": 1}:
                bad.append(f"prefdata {sid}/ot: rejected does not extend the chosen trajectory by one step")
            if not p["f_rejected_last"] <= p["f_chosen_last"]:
                bad.append(f"prefdata {sid}/ot: redundant step improved F")
            added = p["rejected"][len(p["chosen"]) :]
            rewrite = added.split(" [Rewrite] ", 1)[-1]
            if not _close(p["f_rejected_last"], inputs.collection.f_score(rewrite, set(s.golds))["f"]):
                bad.append(f"prefdata {sid}/ot: F of the redundant step differs from the reference")
        if "ut" in pairs_of:
            p = pairs_of["ut"]
            e = p["meta"].get("e")
            if not (isinstance(e, int) and 1 <= e <= n - 1) or p["rejected"] != serialize(pc[:e]) or p["f_rejected_last"] != fs[e - 1]:
                bad.append(f"prefdata {sid}/ut: not a truncation at 1 <= e < {n}")
        if "id" in pairs_of:
            p = pairs_of["id"]
            j = p["meta"].get("j")
            ok = isinstance(j, int) and 1 <= j <= n - 1
            if ok:
                merged = pc[: j - 1] + [(f"{pc[j - 1][0]} {pc[j][0]}", pc[j][1])] + pc[j + 1 :]
                ok = p["rejected"] == serialize(merged) and p["f_rejected_last"] == fs[-1]
            if not ok:
                bad.append(f"prefdata {sid}/id: not a merge of steps j and j+1")
    return bad


# --- sftdata ----------------------------------------------------------------
def check_sft(sft: list[dict], records: list[dict]) -> list[str]:
    bad = []
    nonempty = [r for r in records if r["steps"]]
    if [x["sample_id"] for x in sft] != [r["sample_id"] for r in nonempty]:
        return ["sftdata: records do not match the non-empty trajectories"]
    for x, r in zip(sft, nonempty):
        target, spans = x["target"], x["spans"]
        if target != r["serialized"]:
            bad.append(f"sftdata {x['sample_id']}: target is not the serialized trajectory")
            continue
        pos = 0
        for sp in spans:
            text = target[sp["start"] : sp["end"]]
            if sp["start"] != pos or sp["end"] <= sp["start"]:
                bad.append(f"sftdata {x['sample_id']}: spans do not tile the target")
                break
            pos = sp["end"]
            kind_ok = {
                "clarification": text.startswith("[Clarification]") and text == text.rstrip(),
                "rewrite": text.startswith("[Rewrite]") and text == text.rstrip(),
                "other": text.strip() == "",
            }.get(sp["type"], False)
            if not kind_ok:
                bad.append(f"sftdata {x['sample_id']}: span {sp} has the wrong type")
        if pos != len(target):
            bad.append(f"sftdata {x['sample_id']}: spans stop at {pos} of {len(target)}")
        types = [sp["type"] for sp in spans]
        want = {
            "1": [0 if t == "rewrite" else 1 for t in types],
            "2": [0 if t == "clarification" else 1 for t in types],
            "3": [1 for _ in types],
        }
        if x["epoch_masks"] != want:
            bad.append(f"sftdata {x['sample_id']}: masks do not follow the 3-epoch schedule")
    return bad


# --- retrieval, fusion, evaluation -------------------------------------------
def check_infer(run_path: str, iter_paths: list[str], inputs: ChainInputs) -> list[str]:
    bad = []
    iters = [read_trec(p) if os.path.exists(p) else {} for p in iter_paths]
    fused = read_trec(run_path)
    for i, s in enumerate(inputs.samples):
        lists = [it[s.sample_id] for it in iters if s.sample_id in it]
        if len(lists) != len(s.infer_queries):
            bad.append(f"infer {s.sample_id}: {len(lists)} per-iteration runs, {len(s.infer_queries)} rewrites")
            continue
        if i < F_CHECK_SAMPLES:
            for q, got in zip(s.infer_queries, lists):
                if not _same_ranking(got, inputs.collection.bm25_topk(q, 100)):
                    bad.append(f"infer {s.sample_id}: BM25 top-100 of {q!r} differs from the reference")
        want = ref.prrf([[p for p, _ in l] for l in lists])
        if not _same_ranking(fused.get(s.sample_id, []), want):
            bad.append(f"infer {s.sample_id}: fused list differs from prrf of its iterations")
    return bad


def check_fused(fused_path: str, lists: dict[str, list[list[str]]]) -> list[str]:
    fused = read_trec(fused_path)
    bad = [f"fuse: {len(fused)} fused queries, {len(lists)} in the runs"] if len(fused) != len(lists) else []
    for qid, per_iter in lists.items():
        if not _same_ranking(fused.get(qid, []), ref.prrf(per_iter)):
            bad.append(f"fuse {qid}: fused list differs from prrf of the per-iteration runs")
            if len(bad) > 5:
                break
    return bad


def check_report(report_path: str, run_path: str, qrels: dict[str, dict[str, int]]) -> list[str]:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    run = {q: [p for p, _ in l] for q, l in read_trec(run_path).items()}
    missing = set(qrels) - set(run)
    if missing:
        return [f"evaluate: judged queries without a run line: {sorted(missing)[:5]}"]
    want = ref.evaluate(run, qrels)
    bad = []
    if report["num_samples"] != want["num_samples"]:
        bad.append(f"evaluate: {report['num_samples']} samples scored, {want['num_samples']} due")
    for m in METRICS:
        if not _close(report["aggregate"][m], want["aggregate"][m]):
            bad.append(f"evaluate: aggregate {m} {report['aggregate'][m]}, reference {want['aggregate'][m]}")
    for qid, w in want["per_sample"].items():
        g = report["per_sample"].get(qid)
        if g is None or g["degenerate"] != w["degenerate"] or any(not _close(g[m], w[m]) for m in METRICS):
            bad.append(f"evaluate {qid}: per-sample metrics {g}, reference {w}")
            if len(bad) > 5:
                break
    return bad


def check_dense(index_dir: str, inputs: ChainInputs, rows: int = 500) -> list[str]:
    with open(os.path.join(index_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    vectors = np.load(os.path.join(index_dir, "vectors.npy"), mmap_mode="r")
    col = inputs.collection
    if meta["ids"] != col.ids or vectors.shape != (col.n, col.dim):
        return ["embed-index: ids or shape differ from the collection"]
    step = max(1, col.n // rows)
    for i in range(0, col.n, step):
        if not np.allclose(vectors[i], col.embed(col.texts[i]), rtol=0.0, atol=1e-12):
            return [f"embed-index: vector of {col.ids[i]} differs from the CRC32 hash embedding"]
    return []

"""Seeded input generator: the only source of the files the program reads.

Chain inputs: a Zipf-vocabulary passage collection, a conversational
dataset, a config and a generator script. Every sample
follows one of a fixed cycle of plans (accepted steps with their attempt
numbers, then the stop reason), so every seed gives the same number of
generator calls, F evaluations and retrievals; the seed only changes the
words. Accepted rewrites append a term planted in one of the sample's gold
passages, and the plan is checked against the reference scorer before it
is written, so F strictly rises exactly where the plan says. Rejected
rewrites tokenise exactly like the current query (an echo of it, or the
query with trailing question marks), so their F equals the current best.

Eval inputs: per-iteration TREC runs at test-set scale, laid out the way
``icr infer --per-query-dir`` writes them, and graded qrels.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from reference import Collection

LETTERS = "abcdefghijklmnopqrstuvwxy"  # "z" starts planted gold terms only

# crdg settings written to the config: the library defaults. ``early_stop``
# (default 3) is an argument of make_chain_inputs; the plans below hold for
# any value, since failed rounds only follow the last accepted step.
MAX_ITERS = 10
RESAMPLE_BUDGET = 3

# (1-based attempt of each accepted step, stop reason, one-shot text kind)
PLANS = [
    ([], "early_stop", "empty"),
    ([1], "early_stop", "chain"),
    ([1, 2], "early_stop", "chain"),
    ([2, 1, 1], "early_stop", "chain"),
    ([1, 1, 2, 1], "early_stop", "chain"),
    ([3] + [1] * (MAX_ITERS - 1), "max_iterations", "chain+redundant"),
    ([1, 1], "early_stop", "junk"),
    ([3], "early_stop", "dangling"),
]
# plans whose rejected rounds open with an exact echo of the current query
ECHO_PLANS = {0, 2, 3, 4, 6}

# eval-scale: trajectory length of query i is EVAL_LENGTHS[i % len]
EVAL_LENGTHS = [1, 3, 2, 5, 4, 1, 6, 2, 3, 4]
EVAL_DEPTH = 100
EVAL_UNJUDGED_EVERY = 25


@dataclass
class Sample:
    sample_id: str
    history: list[tuple[str, str]]
    query: str
    golds: list[str]
    attempts: list[int]
    stop: str
    text_kind: str
    planted: list[str] = field(default_factory=list)  # one term per gold passage
    rewrites: list[str] = field(default_factory=list)  # accepted, in order
    infer_text: str = ""
    infer_queries: list[str] = field(default_factory=list)


@dataclass
class ChainInputs:
    paths: dict[str, str]
    collection: Collection
    samples: list[Sample]
    fingerprint_sample: dict[str, str]  # generator fingerprint -> sample id
    early_stop: int


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(c) * 31**i for i, c in enumerate(salt)) % (2**32)])


def make_vocab(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(3, 9))
        w = "".join(LETTERS[i] for i in rng.integers(0, len(LETTERS), n))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_probs(size: int, s: float = 1.0, q: float = 2.7) -> np.ndarray:
    p = 1.0 / (np.arange(size) + q) ** s
    return p / p.sum()


def _letters(n: int, width: int = 4) -> str:
    out = []
    for _ in range(width):
        out.append(LETTERS[n % len(LETTERS)])
        n //= len(LETTERS)
    return "".join(out)


def _script_line(kind: str, fingerprint: str, attempt: int, response: str) -> str:
    return json.dumps(
        {"kind": kind, "fingerprint": fingerprint, "attempt": attempt, "response": response},
        ensure_ascii=False,
    )


def _clarification(current: str, step: int, attempt: int) -> str:
    return f"Which {current.split()[step % 5]} is meant here, take {attempt + 1}?"


def _conversation(history: list[tuple[str, str]], query: str) -> str:
    lines = []
    for q, a in history:
        lines += [f"Q: {q}", f"A: {a}"]
    lines.append(f"Q: {query}")
    return "\n".join(lines)


def make_chain_inputs(
    workdir: str, seed: int, passages: int, samples: int, echoes: bool, early_stop: int, vocab_size: int = 30000
) -> ChainInputs:
    """Write the chain inputs under ``workdir`` and return what the checks need."""
    if samples % len(PLANS):
        raise ValueError("samples must be a multiple of the plan cycle")
    rng = _rng(seed, "chain")
    vocab = make_vocab(rng, vocab_size)
    probs = zipf_probs(vocab_size)
    lengths = rng.integers(40, 81, passages)
    tokens = rng.choice(vocab_size, size=int(lengths.sum()), p=probs)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    docs = [[vocab[t] for t in tokens[bounds[i] : bounds[i + 1]]] for i in range(passages)]
    ids = [f"d{n:06d}" for n in rng.permutation(passages * 3)[:passages]]

    gold_pool = iter(rng.permutation(passages))
    plan_samples: list[Sample] = []
    planted_counter = 0
    for i in range(samples):
        attempts, stop, text_kind = PLANS[i % len(PLANS)]
        n_gold = max(1, len(attempts))
        golds_ord = [int(next(gold_pool)) for _ in range(n_gold)]
        planted = []
        for o in golds_ord:
            term = "z" + _letters(planted_counter) + _letters(int(rng.integers(0, 25**3)), 3)
            planted_counter += 1
            docs[o].insert(int(rng.integers(0, len(docs[o]) + 1)), term)
            planted.append(term)
        golds = [ids[o] for o in golds_ord]
        s = Sample(
            sample_id=f"s{i:04d}",
            history=[],
            query="",
            golds=golds,
            attempts=list(attempts),
            stop=stop,
            text_kind=text_kind,
            planted=planted,
        )
        plan_samples.append(s)
    texts = [" ".join(d) for d in docs]
    collection = Collection(ids, texts)

    # Queries: the two frequent words sit at fixed Zipf ranks per plan slot,
    # so the postings a query touches are about the same for every seed; three
    # rarer words are drawn. The plan is checked with the reference scorer and
    # the rare words redrawn until it holds.
    rare_bands = [(300, 1500), (1500, 6000), (6000, 20000)]
    used_queries: set[str] = set()
    for i, s in enumerate(plan_samples):
        slot = i % len(PLANS)
        frequent = [vocab[20 + 5 * slot], vocab[80 + 25 * slot]]
        for _try in range(200):
            words = frequent + [vocab[int(rng.integers(lo, hi))] for lo, hi in rare_bands]
            query = " ".join(words)
            if query in used_queries:
                continue
            chain = [query]
            for term in s.planted[: len(s.attempts)]:
                chain.append(chain[-1] + " " + term)
            if len(chain) > 1:
                gold = set(s.golds)
                fs = [collection.f_score(q, gold)["f"] for q in chain]
                if not all(b > a for a, b in zip(fs, fs[1:])):
                    continue
            break
        else:
            raise RuntimeError(f"no query satisfies the plan of {s.sample_id}")
        used_queries.add(query)
        s.query = query
        s.rewrites = chain[1:]
        s.history = [
            (" ".join(vocab[int(t)] for t in rng.integers(20, 3000, 6)),
             " ".join(vocab[int(t)] for t in rng.integers(0, 3000, 12)))
            for _ in range(1 + int(rng.integers(0, 2)))
        ]

    lines: list[str] = []
    fp_sample: dict[str, str] = {}

    def entry(s: Sample, kind: str, fingerprint: str, attempt: int, response: str) -> None:
        fp_sample[fingerprint] = s.sample_id
        lines.append(_script_line(kind, fingerprint, attempt, response))

    for idx, s in enumerate(plan_samples):
        echo = echoes and (idx % len(PLANS)) in ECHO_PLANS
        marks = 0

        def reject(current: str, attempt: int) -> str:
            nonlocal marks
            if echo and attempt == 0:
                return current
            marks += 1
            return current + " " + "?" * marks

        current = s.query
        for step, accepted_attempt in enumerate(s.attempts):
            for attempt in range(accepted_attempt):
                c = _clarification(current, step, attempt)
                entry(s, "clarify", current, attempt, c)
                r = s.rewrites[step] if attempt == accepted_attempt - 1 else reject(current, attempt)
                entry(s, "rewrite", f"{current}\n{c}", attempt, r)
            current = s.rewrites[step]
        failed_rounds = early_stop if s.stop == "early_stop" else MAX_ITERS - len(s.attempts)
        # The failed round's attempt 0 doubles as prefdata's redundant step;
        # a trajectory that used every round gets one scripted for it.
        for attempt in range(RESAMPLE_BUDGET + 1 if failed_rounds else 1):
            c = _clarification(current, len(s.attempts), attempt)
            entry(s, "clarify", current, attempt, c)
            entry(s, "rewrite", f"{current}\n{c}", attempt, reject(current, attempt))

        serial = " ".join(
            f"[Clarification] {_clarification(q, n, a - 1)} [Rewrite] {r}"
            for n, (q, r, a) in enumerate(zip([s.query] + s.rewrites, s.rewrites, s.attempts))
        )
        if s.text_kind == "empty":
            text, queries = "", [s.query]
        elif s.text_kind == "junk":
            text, queries = "the query needs no clarification", [s.query]
        elif s.text_kind == "dangling":
            text = f"{serial} [Clarification] anything else?"
            queries = list(s.rewrites)
        elif s.text_kind == "chain+redundant":
            extra = s.rewrites[-1] + " ?"
            text = f"{serial} [Clarification] is that all? [Rewrite] {extra}"
            queries = s.rewrites + [extra]
        else:
            text, queries = serial, list(s.rewrites)
        s.infer_text, s.infer_queries = text, queries
        entry(s, "trajectory", _conversation(s.history, s.query), 0, text)

    os.makedirs(workdir, exist_ok=True)
    paths = {
        "collection": os.path.join(workdir, "collection.tsv"),
        "dataset": os.path.join(workdir, "train.jsonl"),
        "script": os.path.join(workdir, "script.jsonl"),
        "config": os.path.join(workdir, "icr.cfg"),
    }
    with open(paths["collection"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{pid}\t{text}\n" for pid, text in zip(ids, texts))
    with open(paths["dataset"], "w", encoding="utf-8") as fh:
        for s in plan_samples:
            rec = {
                "sample_id": s.sample_id,
                "history": [{"query": q, "answer": a} for q, a in s.history],
                "query": s.query,
                "gold_passage_ids": s.golds,
            }
            fh.write(json.dumps(rec) + "\n")
    with open(paths["script"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write(
            f"crdg.f_mode = both\ncrdg.early_stop = {early_stop}\n"
            f"crdg.max_iters = {MAX_ITERS}\ncrdg.resample_budget = {RESAMPLE_BUDGET}\n"
        )
    return ChainInputs(paths, collection, plan_samples, fp_sample, early_stop)


@dataclass
class EvalInputs:
    iter_paths: list[str]
    qrels_path: str
    lists: dict[str, list[list[str]]]  # qid -> per-iteration docid lists
    qrels: dict[str, dict[str, int]]


def make_eval_inputs(workdir: str, seed: int, queries: int, pool: int = 200000) -> EvalInputs:
    """Per-iteration runs (iter_01.trec, ...) and graded qrels at test-set scale."""
    rng = _rng(seed, "eval")
    lists: dict[str, list[list[str]]] = {}
    qrels: dict[str, dict[str, int]] = {}
    for q in range(queries):
        qid = f"t{q:05d}"
        length = EVAL_LENGTHS[q % len(EVAL_LENGTHS)]
        ranked = [f"d{n:06d}" for n in rng.choice(pool, EVAL_DEPTH, replace=False)]
        per_iter = [ranked]
        for _ in range(length - 1):
            # the next rewrite keeps most of the list, reorders it, and
            # brings in a few new passages
            keep = [ranked[i] for i in np.sort(rng.permutation(EVAL_DEPTH)[:80])]
            keep = [keep[i] for i in np.argsort(np.arange(80) + rng.normal(0, 8, 80), kind="stable")]
            fresh = [f"d{n:06d}" for n in rng.choice(pool, 40, replace=False)]
            seen = set(keep)
            ranked = (keep + [d for d in fresh if d not in seen])[:EVAL_DEPTH]
            per_iter.append(ranked)
        lists[qid] = per_iter
        if q % EVAL_UNJUDGED_EVERY == EVAL_UNJUDGED_EVERY - 1:
            continue
        retrieved = sorted({d for r in per_iter for d in r})
        judged: dict[str, int] = {}
        for j in range(1 + q % 4):
            if j % 2 == 0:
                doc = retrieved[int(rng.integers(0, len(retrieved)))]
            else:
                doc = f"d{pool + q * 4 + j:06d}"  # relevant but never retrieved
            judged[doc] = 1 + int(rng.integers(0, 3))
        negative = retrieved[int(rng.integers(0, len(retrieved)))]
        if negative not in judged:
            judged[negative] = 0  # judged, not relevant
        qrels[qid] = judged

    os.makedirs(workdir, exist_ok=True)
    depth = max(EVAL_LENGTHS)
    paths = []
    for i in range(depth):
        path = os.path.join(workdir, f"iter_{i + 1:02d}.trec")
        with open(path, "w", encoding="utf-8") as fh:
            for qid, per_iter in lists.items():
                if len(per_iter) > i:
                    fh.writelines(
                        f"{qid} Q0 {d} {r} {30.0 - 0.25 * r + 0.01 * (i + 1)!r} ICR\n"
                        for r, d in enumerate(per_iter[i], 1)
                    )
        paths.append(path)
    qrels_path = os.path.join(workdir, "qrels.txt")
    with open(qrels_path, "w", encoding="utf-8") as fh:
        for qid, judged in qrels.items():
            fh.writelines(f"{qid} 0 {d} {g}\n" for d, g in judged.items())
    return EvalInputs(paths, qrels_path, lists, qrels)

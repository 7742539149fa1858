"""Shared fixtures: toy corpora and generator scripts for the loop tests."""

from __future__ import annotations

import re

import pytest

from icr.corpus import CQRSample, Passage, Turn
from icr.dense_index import HashEmbeddingProvider, build_dense_index
from icr.genclient import ScriptedMock, clarify_fingerprint, rewrite_fingerprint
from icr.sparse_index import Bm25Params, build_sparse_index

# The temporary sibling ``corpus.replacing`` writes an output into
# (``<path>.<hex>.tmp``), and the worker shard files named after it.
TEMPORARY_NAME = re.compile(r"\.[0-9a-f]{16}\.tmp")


@pytest.fixture(autouse=True)
def no_temporary_file_left(request):
    """Fail a test that leaves a temporary output file under its tmp_path."""
    root = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if root is not None:
        left = sorted(str(p.relative_to(root)) for p in root.rglob("*") if TEMPORARY_NAME.search(p.name))
        assert not left, f"temporary files left behind: {left}"


# Tiered vocabulary corpus. The gold passage holds tokens t1..t11; the
# tier-i distractor holds t1..ti (i tokens, shorter than gold). A query
# made of t1..t_m therefore ranks gold below the deeper tiers, and each
# extension of the query by one token raises gold by one rank, so scripted
# rewrite chains can improve retrieval quality for as many rounds as
# needed.
TIER_TOKENS = [
    "amber", "bison", "cedar", "dingo", "ember",
    "falcon", "garnet", "heron", "indigo", "jackal", "kelpie",
]


def tier_query(m: int) -> str:
    """Query made of the first m tier tokens."""
    return " ".join(TIER_TOKENS[:m])


def make_tier_corpus() -> list[Passage]:
    passages = [
        Passage(f"tier{i:02d}", " ".join(TIER_TOKENS[:i])) for i in range(1, 11)
    ]
    passages.append(Passage("gold", " ".join(TIER_TOKENS)))
    for i in range(9):
        passages.append(
            Passage(f"fill{i:02d}", f"fillera{i} fillerb{i} fillerc{i} fillerd{i} fillere{i}")
        )
    return passages  # 20 passages


@pytest.fixture(scope="session")
def tier_corpus():
    return make_tier_corpus()


@pytest.fixture(scope="session")
def tier_sparse(tier_corpus):
    return build_sparse_index(tier_corpus, Bm25Params(k1=0.9, b=0.4))


@pytest.fixture(scope="session")
def tier_provider():
    return HashEmbeddingProvider(dim=512)


@pytest.fixture(scope="session")
def tier_dense(tier_corpus, tier_provider):
    return build_dense_index(tier_corpus, tier_provider)


@pytest.fixture()
def tier_sample():
    return CQRSample(
        sample_id="s1",
        history=[Turn("what stone is amber", "a fossil resin")],
        query=tier_query(1),
        gold_passage_ids={"gold"},
    )


def improving_script(rounds: int, start: int = 1) -> ScriptedMock:
    """Mock whose rewrite chain extends the tier query one token per round.

    Round r rewrites t1..t_m into t1..t_{m+1}, which strictly improves the
    gold passage's rank in both retrievers.
    """
    mock = ScriptedMock()
    for m in range(start, start + rounds):
        q = tier_query(m)
        clar = f"which detail {m}?"
        mock.add("clarify", clarify_fingerprint(q), clar)
        mock.add("rewrite", rewrite_fingerprint(q, clar), tier_query(m + 1))
    return mock


def plateau_script(query: str, attempts: int, mock: ScriptedMock | None = None) -> ScriptedMock:
    """Mock whose every rewrite echoes the query back (quality never moves)."""
    mock = mock or ScriptedMock()
    for attempt in range(attempts):
        clar = f"could you repeat attempt {attempt}?"
        mock.add("clarify", clarify_fingerprint(query), clar, attempt)
        mock.add("rewrite", rewrite_fingerprint(query, clar), query, attempt)
    return mock


def improve_then_plateau(rounds: int, attempts: int) -> ScriptedMock:
    """Improving chain for ``rounds`` rounds, then echo rewrites forever.

    ``attempts`` must cover the resample budget + 1 so the failing rounds
    never run out of script entries.
    """
    mock = improving_script(rounds)
    return plateau_script(tier_query(rounds + 1), attempts, mock)


def build_cli_workspace(root) -> dict[str, str]:
    """Materialize collection, dataset, qrels, mock script, and config
    files for end-to-end CLI runs over the tier corpus."""
    from icr.corpus import Qrels

    from .support import write_collection, write_cqr_dataset, write_mock_script, write_qrels

    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "collection": str(root / "collection.tsv"),
        "dataset": str(root / "train.jsonl"),
        "qrels": str(root / "qrels.txt"),
        "script": str(root / "script.jsonl"),
        "config": str(root / "icr.conf"),
    }
    write_collection(make_tier_corpus(), paths["collection"])

    samples = [
        CQRSample("s1", [Turn("what stone is amber", "a fossil resin")], tier_query(1), {"gold"}),
        CQRSample("s2", [], "kelpie", {"gold"}),
        CQRSample("s3", [], tier_query(1), {"missing-id"}),
    ]
    write_cqr_dataset(samples, paths["dataset"])

    qrels = Qrels()
    for s in samples:
        qrels.set(s.sample_id, "gold", 1)
    write_qrels(qrels, paths["qrels"])

    mock = improve_then_plateau(rounds=3, attempts=4)
    plateau_script("kelpie", attempts=4, mock=mock)
    # under crdg.f_mode = dense_only, "amber bison" leaves the gold's dense
    # rank at 11, so s1 resamples; this second attempt lifts it to rank 10
    # and lands on the plateau above, which then yields an ot pair
    mock.add("clarify", clarify_fingerprint(tier_query(1)), "which four details?", 1)
    mock.add("rewrite", rewrite_fingerprint(tier_query(1), "which four details?"), tier_query(4), 1)
    mock.add(
        "trajectory",
        "Q: what stone is amber\nA: a fossil resin\nQ: amber",
        "[Clarification] which bison? [Rewrite] amber bison"
        " [Clarification] which cedar? [Rewrite] amber bison cedar",
    )
    mock.add("trajectory", "Q: kelpie", "[Clarification] what is a kelpie? [Rewrite] kelpie jackal")
    mock.add("trajectory", "Q: amber", "[Clarification] which amber? [Rewrite] amber bison cedar dingo")
    write_mock_script(mock, paths["script"])

    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write("# desk-scale defaults\n")
        fh.write("bm25.profile = topiocqa\n")
        fh.write("dense.dim = 512\n")
        fh.write("fusion.mode = prrf\n")
    return paths

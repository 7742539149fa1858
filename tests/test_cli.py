from __future__ import annotations

import json
from pathlib import Path

import pytest

from icr.cli import main
from icr.corpus import Passage
from icr.errors import ProviderUnavailable
from icr.fusion import FusionConfig
from icr.manifest import load_manifest, verify_outputs
from icr.pipeline import InferenceConfig, InferenceResult, emit_per_query_runs, emit_run, retrieve_and_fuse
from icr.ranking import RankedList

from .conftest import build_cli_workspace, make_tier_corpus
from .support import write_collection


@pytest.fixture()
def ws(tmp_path):
    paths = build_cli_workspace(tmp_path / "data")
    out = tmp_path / "out"
    out.mkdir()
    paths["out"] = out
    return paths


def _build_indexes(ws) -> tuple[str, str]:
    sparse = str(ws["out"] / "sparse.idx.gz")
    dense = str(ws["out"] / "dense.idx")
    assert main(["build-index", "--collection", ws["collection"], "--out", sparse,
                 "--config", ws["config"]]) == 0
    assert main(["embed-index", "--collection", ws["collection"], "--out", dense,
                 "--config", ws["config"]]) == 0
    return sparse, dense


def test_full_cli_workflow(ws, capsys):
    sparse, dense = _build_indexes(ws)
    assert Path(sparse).exists()
    assert Path(sparse + ".manifest.json").exists()
    assert Path(dense, "meta.json").exists()

    dcr = str(ws["out"] / "dcr.jsonl")
    code = main([
        "crdg", "--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
        "--mock-script", ws["script"], "--out", dcr, "--config", ws["config"], "--seed", "0",
    ])
    assert code == 0
    records = [json.loads(l) for l in Path(dcr).read_text().splitlines()]
    assert [r["sample_id"] for r in records] == ["s1", "s2", "s3"]
    assert "error" in records[2]  # gold id missing from the collection
    manifest = load_manifest(dcr + ".manifest.json")
    assert manifest["command"] == "crdg"
    assert manifest["seed"] == 0
    assert all(verify_outputs(manifest).values())

    pref = str(ws["out"] / "pref.jsonl")
    code = main([
        "prefdata", "--crdg", dcr, "--dataset", ws["dataset"], "--sparse-index", sparse,
        "--dense-index", dense, "--mock-script", ws["script"], "--out", pref,
        "--config", ws["config"], "--seed", "0",
    ])
    assert code == 0
    dims = [json.loads(l)["dimension"] for l in Path(pref).read_text().splitlines()]
    assert dims.count("ot") == 1 and dims.count("ut") == 1 and dims.count("id") == 1

    sft = str(ws["out"] / "sft.jsonl")
    assert main(["sftdata", "--crdg", dcr, "--dataset", ws["dataset"], "--out", sft,
                 "--config", ws["config"]]) == 0
    sft_records = [json.loads(l) for l in Path(sft).read_text().splitlines()]
    assert len(sft_records) == 1  # s2 empty, s3 error

    run = str(ws["out"] / "run.trec")
    iters = str(ws["out"] / "iters")
    code = main([
        "infer", "--dataset", ws["dataset"], "--sparse-index", sparse,
        "--mock-script", ws["script"], "--out", run, "--per-query-dir", iters,
        "--config", ws["config"], "--seed", "0",
    ])
    assert code == 0
    run_lines = Path(run).read_text().splitlines()
    assert run_lines and run_lines[0].endswith("ICR")

    fused = str(ws["out"] / "fused.trec")
    iter_files = sorted(str(p) for p in Path(iters).glob("iter_*.trec"))
    assert main(["fuse", *iter_files, "--out", fused, "--config", ws["config"]]) == 0
    assert Path(fused).read_bytes() == Path(run).read_bytes()

    report_path = str(ws["out"] / "eval.json")
    assert main(["evaluate", "--run", run, "--qrels", ws["qrels"], "--out", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    assert report["num_samples"] == 3
    assert report["aggregate"]["mrr"] > 0

    analysis_path = str(ws["out"] / "analysis.json")
    assert main(["analyze", "--crdg", dcr, "--out", analysis_path]) == 0
    analysis = json.loads(Path(analysis_path).read_text())
    assert analysis["num_trajectories"] == 2
    assert 0.0 <= analysis["gsr"] <= analysis["lsr"] <= 1.0

    latency_path = str(ws["out"] / "latency.json")
    assert main(["latency", "--dataset", ws["dataset"], "--mock-script", ws["script"],
                 "--out", latency_path]) == 0
    latency = json.loads(Path(latency_path).read_text())
    assert set(latency["per_sample"]) == {"s1", "s2", "s3"}
    capsys.readouterr()


DATA = Path(__file__).parent / "data"


def _crdg_and_prefdata(ws) -> tuple[bytes, bytes]:
    """The bytes ``crdg`` then ``prefdata --multi-ot --seed 3`` write."""
    sparse, dense = _build_indexes(ws)
    common = ["--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
              "--mock-script", ws["script"], "--config", ws["config"]]
    dcr, pref = ws["out"] / "dcr.jsonl", ws["out"] / "pref.jsonl"
    assert main(["crdg", *common, "--out", str(dcr)]) == 0
    assert main(["prefdata", "--crdg", str(dcr), *common, "--out", str(pref),
                 "--multi-ot", "--seed", "3"]) == 0
    return dcr.read_bytes(), pref.read_bytes()


def test_crdg_and_prefdata_match_golden_outputs(ws):
    """The goldens were written by the loop that computed F on every call,
    before F was memoised per sample; outputs must stay byte-identical."""
    dcr, pref = _crdg_and_prefdata(ws)
    assert dcr == (DATA / "chain_dcr.golden.jsonl").read_bytes()
    assert pref == (DATA / "chain_pref.golden.jsonl").read_bytes()


@pytest.mark.parametrize("f_mode", ["sparse_only", "dense_only"])
def test_single_retriever_f_modes_match_golden_outputs(ws, f_mode):
    """crdg and prefdata under each single-retriever F mode, pinned byte for byte."""
    with open(ws["config"], "a", encoding="utf-8") as fh:
        fh.write(f"crdg.f_mode = {f_mode}\n")
    dcr, pref = _crdg_and_prefdata(ws)
    assert dcr == (DATA / f"chain_dcr.{f_mode}.golden.jsonl").read_bytes()
    assert pref == (DATA / f"chain_pref.{f_mode}.golden.jsonl").read_bytes()


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but the manifests, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


@pytest.mark.parametrize("retriever", ["dense", "both-report"])
def test_infer_retrievers_match_golden_outputs(ws, retriever, capsys):
    """The fused run and the per-iteration runs of each dense-searching
    retriever, pinned byte for byte."""
    sparse, dense = _build_indexes(ws)
    out = ws["out"] / "infer"
    out.mkdir()
    assert main(["infer", "--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
                 "--mock-script", ws["script"], "--config", ws["config"], "--retriever", retriever,
                 "--out", str(out / "run.trec"), "--per-query-dir", str(out / "iters")]) == 0
    golden = _tree(DATA / f"infer_{retriever}.golden")
    assert golden and _tree(out) == golden
    capsys.readouterr()


def test_embed_index_into_a_directory_holding_another_file_is_a_data_error(ws, capsys):
    dense = ws["out"] / "dense.idx"
    dense.mkdir()
    (dense / "notes.txt").write_text("mine", encoding="utf-8")
    assert main(["embed-index", "--collection", ws["collection"], "--out", str(dense),
                 "--config", ws["config"]]) == 2
    assert "notes.txt" in capsys.readouterr().err
    assert [p.name for p in ws["out"].rglob("*")] == ["dense.idx", "notes.txt"]
    # a rerun into a directory that holds only an index still works
    (dense / "notes.txt").unlink()
    for _ in range(2):
        assert main(["embed-index", "--collection", ws["collection"], "--out", str(dense),
                     "--config", ws["config"]]) == 0
    assert sorted(p.name for p in dense.iterdir()) == ["id_rank.npy", "meta.json", "vectors.npy"]
    capsys.readouterr()


@pytest.mark.parametrize("last_line", ["p1\tagain", "no tab here"])
def test_embed_index_refuses_a_bad_collection_before_embedding_any_passage(ws, capsys, monkeypatch, last_line):
    from icr.dense_index import HashEmbeddingProvider

    calls = []
    embed_batch = HashEmbeddingProvider.embed_batch
    monkeypatch.setattr(
        HashEmbeddingProvider, "embed_batch", lambda self, texts, role=None: calls.append(1) or embed_batch(self, texts, role)
    )
    collection = ws["out"] / "collection.tsv"
    write_collection([Passage(f"p{i}", f"text {i}") for i in range(200)], str(collection))
    with open(collection, "a", encoding="utf-8") as fh:
        fh.write(last_line + "\n")
    dense = ws["out"] / "dense.idx"
    assert main(["embed-index", "--collection", str(collection), "--out", str(dense), "--config", ws["config"]]) == 2
    assert "collection.tsv:201:" in capsys.readouterr().err
    assert calls == [] and not dense.exists()


def test_usage_error_exit_code(capsys):
    assert main(["crdg"]) == 1  # --out is required
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_data_error_exit_code(ws, capsys):
    out = str(ws["out"] / "report.json")
    assert main(["evaluate", "--run", "/nonexistent/run.trec", "--qrels", ws["qrels"],
                 "--out", out]) == 2
    assert "data error" in capsys.readouterr().err


def test_missing_required_setting_exit_code(ws, tmp_path, capsys):
    # f_mode "both" needs a sparse index; leaving the flag off is a data error
    code = main(["crdg", "--dataset", ws["dataset"], "--mock-script", ws["script"],
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "--sparse-index" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, ws, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("fusion.k = -1\n", encoding="utf-8")
    sparse, dense = _build_indexes(ws)
    code = main(["crdg", "--dataset", ws["dataset"], "--sparse-index", sparse,
                 "--dense-index", dense, "--mock-script", ws["script"],
                 "--out", str(tmp_path / "x.jsonl"), "--config", str(bad)])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--k", "nan", "expected a finite number, got 'nan'"),
        ("--k", "inf", "expected a finite number, got 'inf'"),
        ("--k", "0", "must be > 0.0, got 0.0"),
        ("--k", "-1", "must be > 0.0, got -1.0"),
        ("--depth", "0", "must be >= 1, got 0"),
    ],
    ids=["k-nan", "k-inf", "k-0", "k-minus-1", "depth-0"],
)
def test_a_bad_fuse_flag_is_a_usage_error_naming_it(tmp_path, capsys, flag, value, reason):
    """The flags get the checks of their config keys, fusion.k and fusion.depth."""
    run, out = tmp_path / "one.trec", tmp_path / "fused.trec"
    run.write_text("q1 Q0 d1 1 1.0 ICR\n", encoding="utf-8")
    assert main(["fuse", str(run), flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: argument {flag}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.trec"]


@pytest.mark.parametrize(
    "value, reason",
    [
        ("a", "expected an integer, got 'a'"),
        ("4,,5", "expected an integer, got ''"),
        ("0", "must be >= 1, got 0"),
        ("-1", "must be >= 1, got -1"),
    ],
    ids=["a", "empty-item", "0", "minus-1"],
)
def test_a_bad_analyze_length_is_a_usage_error(tmp_path, capsys, value, reason):
    crdg, out = tmp_path / "dcr.jsonl", tmp_path / "analysis.json"
    crdg.write_text("", encoding="utf-8")
    assert main(["analyze", "--crdg", str(crdg), "--lengths", value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: argument --lengths: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dcr.jsonl"]


def test_provider_error_exit_code(ws, monkeypatch, capsys):
    class DownClient:
        def generate(self, kind, fingerprint, prompt, attempt=0):
            raise ProviderUnavailable("endpoint down")

    monkeypatch.setattr("icr.cli._make_client", lambda args, config: DownClient())
    code = main(["latency", "--dataset", ws["dataset"], "--out", str(ws["out"] / "l.json")])
    assert code == 3
    assert "provider error" in capsys.readouterr().err


def test_infer_both_report_writes_two_runs(ws, capsys):
    sparse, dense = _build_indexes(ws)
    run = str(ws["out"] / "run.trec")
    code = main([
        "infer", "--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
        "--mock-script", ws["script"], "--out", run, "--retriever", "both-report",
        "--config", ws["config"],
    ])
    assert code == 0
    assert Path(run + ".sparse").exists()
    assert Path(run + ".dense").exists()
    manifest = load_manifest(run + ".manifest.json")
    assert set(manifest["outputs"]) == {run + ".sparse", run + ".dense"}
    capsys.readouterr()


def test_fusing_per_iteration_runs_reproduces_final_only_infer(ws, capsys):
    # s2 and s3 rewrite fewer times than s1, so the last iteration file holds
    # only s1; each query's final list is in an earlier file
    config = Path(ws["config"])
    config.write_text(config.read_text().replace("fusion.mode = prrf", "fusion.mode = final_only"))
    sparse, _ = _build_indexes(ws)
    run, iters, fused = (str(ws["out"] / name) for name in ("run.trec", "iters", "fused.trec"))
    assert main(["infer", "--dataset", ws["dataset"], "--sparse-index", sparse, "--mock-script", ws["script"],
                 "--out", run, "--per-query-dir", iters, "--config", ws["config"], "--seed", "0"]) == 0
    assert {line.split()[0] for line in Path(run).read_text().splitlines()} == {"s1", "s2", "s3"}
    iter_files = sorted(str(p) for p in Path(iters).glob("iter_*.trec"))
    assert main(["fuse", *iter_files, "--out", fused, "--config", ws["config"]]) == 0
    assert Path(fused).read_bytes() == Path(run).read_bytes()
    capsys.readouterr()


def test_evaluate_and_analyze_print_one_line_and_write_the_report(ws, capsys):
    sparse, _ = _build_indexes(ws)
    dcr = _crdg_output(ws)
    run = str(ws["out"] / "run.trec")
    assert main(["infer", "--dataset", ws["dataset"], "--sparse-index", sparse, "--mock-script", ws["script"],
                 "--out", run, "--config", ws["config"], "--seed", "0"]) == 0
    capsys.readouterr()
    report_path, analysis_path = str(ws["out"] / "eval.json"), str(ws["out"] / "analysis.json")
    assert main(["evaluate", "--run", run, "--qrels", ws["qrels"], "--out", report_path]) == 0
    assert capsys.readouterr().out == f"wrote evaluate report over 3 samples -> {report_path}\n"
    assert main(["analyze", "--crdg", dcr, "--out", analysis_path]) == 0
    assert capsys.readouterr().out == f"wrote analyze report over 2 samples -> {analysis_path}\n"
    report = json.loads(Path(report_path).read_text())
    assert set(report["per_sample"]) == {"s1", "s2", "s3"} and "aggregate" in report
    analysis = json.loads(Path(analysis_path).read_text())
    assert analysis["num_trajectories"] == 2 and {"lsr", "gsr", "delta_f"} <= set(analysis)


def test_evaluate_orders_each_query_by_score_not_by_the_rank_column(tmp_path, capsys):
    # ranked by score, as trec_eval ranks, the one relevant passage is first
    run, qrels, report = tmp_path / "run.trec", tmp_path / "qrels.txt", tmp_path / "report.json"
    run.write_text("q1 Q0 d1 2 1.0 T\nq1 Q0 d2 1 0.5 T\n")
    qrels.write_text("q1 0 d1 1\n")
    assert main(["evaluate", "--run", str(run), "--qrels", str(qrels), "--out", str(report)]) == 0
    aggregate = json.loads(report.read_text())["aggregate"]
    assert (aggregate["mrr"], aggregate["ndcg3"]) == (1.0, 1.0)
    capsys.readouterr()


def _with_keys(ws, **keys) -> str:
    """``ws``'s config with ``dataset.<name> = <path>`` keys added."""
    config = ws["out"] / "keys.conf"
    config.write_text(Path(ws["config"]).read_text() + "".join(f"dataset.{k} = {v}\n" for k, v in keys.items()))
    return str(config)


def test_infer_reads_dataset_test_not_dataset_train(ws, capsys):
    sparse, _ = _build_indexes(ws)
    test = ws["out"] / "test.jsonl"
    test.write_text("".join(line for line in Path(ws["dataset"]).read_text().splitlines(True) if '"s2"' in line))
    config = _with_keys(ws, train=ws["dataset"], test=test)
    run = str(ws["out"] / "run.trec")
    assert main(["infer", "--sparse-index", sparse, "--mock-script", ws["script"], "--out", run,
                 "--config", config]) == 0
    assert {line.split()[0] for line in Path(run).read_text().splitlines()} == {"s2"}
    assert str(test) in load_manifest(run + ".manifest.json")["inputs"]
    capsys.readouterr()


def test_crdg_does_not_read_dataset_test(ws, capsys):
    sparse, dense = _build_indexes(ws)
    config = _with_keys(ws, test=ws["dataset"])
    assert main(["crdg", "--sparse-index", sparse, "--dense-index", dense, "--mock-script", ws["script"],
                 "--out", str(ws["out"] / "dcr.jsonl"), "--config", config]) == 2
    assert capsys.readouterr().err == "data error: missing required setting '--dataset'\n"


def test_evaluate_reads_its_qrels_from_dataset_qrels(ws, capsys):
    run, report = ws["out"] / "run.trec", str(ws["out"] / "report.json")
    run.write_text("s1 Q0 gold 1 1.0 T\n")
    assert main(["evaluate", "--run", str(run), "--out", report]) == 2
    assert capsys.readouterr().err == "data error: missing required setting '--qrels'\n"
    assert main(["evaluate", "--run", str(run), "--out", report, "--config", _with_keys(ws, qrels=ws["qrels"])]) == 0
    assert json.loads(Path(report).read_text())["num_samples"] == 3
    assert ws["qrels"] in load_manifest(report + ".manifest.json")["inputs"]
    capsys.readouterr()


def test_an_empty_last_iteration_is_not_in_the_per_query_files(tmp_path, capsys):
    # a run file has no line for an empty list, so fuse cannot see that the
    # last rewrite retrieved nothing: final_only takes the list before it, in
    # infer as in fuse
    lists = {"a": RankedList("s", [("a", 1.0)]), "b": RankedList("s")}
    config = InferenceConfig()
    runs = {}
    for mode in ("final_only", "prrf"):
        config.fusion = FusionConfig(mode=mode)
        per_query, fused, _ = retrieve_and_fuse(["a", "b"], lambda q, k, tag: lists[q], config, "s", "q")
        result = InferenceResult("s", "", ["a", "b"], per_query, fused)
        infer_run, fused_run = str(tmp_path / f"{mode}.trec"), str(tmp_path / f"{mode}.fused.trec")
        emit_run([result], infer_run)
        iter_files = emit_per_query_runs([result], str(tmp_path / mode))
        assert main(["fuse", *iter_files, "--mode", mode, "--out", fused_run]) == 0
        runs[mode] = Path(infer_run).read_text(), Path(fused_run).read_text()
    assert runs["final_only"] == ("s Q0 a 1 1.0 ICR\n", "s Q0 a 1 1.0 ICR\n")
    assert runs["prrf"][0] and runs["prrf"][1] == runs["prrf"][0]
    capsys.readouterr()


TOY_QUERY = "has she produced anything else?"


def _toy_flags(tmp_path, config: str, script: list[dict], queries=(TOY_QUERY,)) -> dict[str, list[str]]:
    """The README walkthrough's collection, indexed, and one sample per
    query (s1, s2, ...), with ``script`` as the mock script and ``config``
    as the config file; returns the dataset, config, and index and
    generator flags."""
    (tmp_path / "collection.tsv").write_text(
        "p1\tsusan belbin produced the sitcom one foot in the grave and other shows\n"
        "p2\tshe said anything else was available elsewhere\n"
        "p3\tone foot equals twelve inches\n"
    )
    samples = [{"sample_id": f"s{i}", "history": [], "query": query, "gold_passage_ids": ["p1"]}
               for i, query in enumerate(queries, 1)]
    (tmp_path / "data.jsonl").write_text("".join(json.dumps(sample) + "\n" for sample in samples))
    (tmp_path / "script.jsonl").write_text("".join(json.dumps(entry) + "\n" for entry in script))
    (tmp_path / "icr.conf").write_text(config)
    flags = {"dataset": ["--dataset", str(tmp_path / "data.jsonl")], "config": ["--config", str(tmp_path / "icr.conf")]}
    sparse = str(tmp_path / "sparse.idx")
    assert main(["build-index", "--collection", str(tmp_path / "collection.tsv"), "--out", sparse, *flags["config"]]) == 0
    flags["search"] = ["--sparse-index", sparse, "--mock-script", str(tmp_path / "script.jsonl")]
    return flags


def test_final_only_infer_and_fuse_agree_when_the_last_rewrite_finds_nothing(tmp_path, capsys):
    # the last rewrite shares no token with the collection
    trajectory = "[Clarification] Who is she? [Rewrite] susan belbin shows [Clarification] Which? [Rewrite] zzzz qqqq"
    script = [{"kind": "trajectory", "fingerprint": f"Q: {TOY_QUERY}", "response": trajectory}]
    flags = _toy_flags(tmp_path, "fusion.mode = final_only\n", script)
    run, iters, fused = (str(tmp_path / name) for name in ("run.trec", "iters", "fused.trec"))
    assert main(["infer", *flags["dataset"], *flags["search"], "--out", run, "--per-query-dir", iters,
                 *flags["config"]]) == 0
    assert main(["fuse", *sorted(str(p) for p in Path(iters).glob("iter_*.trec")), "--out", fused,
                 *flags["config"]]) == 0
    assert Path(run).read_text().split()[:3] == ["s1", "Q0", "p1"]
    assert Path(run).read_bytes() == Path(fused).read_bytes()
    capsys.readouterr()


def test_a_generation_holding_a_marker_uses_up_its_attempt(tmp_path, capsys):
    # serialized, "[Rewrite]" inside a clarification would split the pair
    rewrite = "has susan belbin produced anything else?"
    marked, clean = "Who is meant by [Rewrite] here?", 'Who does "she" refer to?'
    script = [
        {"kind": "clarify", "fingerprint": TOY_QUERY, "attempt": 0, "response": marked},
        {"kind": "rewrite", "fingerprint": f"{TOY_QUERY}\n{marked}", "attempt": 0, "response": rewrite},
        {"kind": "clarify", "fingerprint": TOY_QUERY, "attempt": 1, "response": clean},
        {"kind": "rewrite", "fingerprint": f"{TOY_QUERY}\n{clean}", "attempt": 1, "response": rewrite},
    ]
    flags = _toy_flags(tmp_path, "crdg.f_mode = sparse_only\ncrdg.max_iters = 1\n", script)
    dcr, sft = str(tmp_path / "dcr.jsonl"), str(tmp_path / "sft.jsonl")
    assert main(["crdg", *flags["dataset"], *flags["search"], "--out", dcr, *flags["config"]]) == 0
    steps = json.loads(Path(dcr).read_text())["steps"]
    assert [(step["clarification"], step["attempts"]) for step in steps] == [(clean, 2)]
    assert main(["sftdata", "--crdg", dcr, *flags["dataset"], "--out", sft, *flags["config"]]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("clarification, rewrite", [
    ("   ", "did susan belbin make anything else?"),
    ("Who is she?", "did [Clarification] she make anything else?"),
], ids=["blank-clarification", "marked-rewrite"])
def test_a_refused_step_wise_generation_falls_back_and_keeps_the_run(tmp_path, capsys, clarification, rewrite):
    # s1's chain is usable; s2's first generation is refused, so s2 falls
    # back to its own query, which matches p2 best
    usable = 'Who does "she" refer to?'
    second = "did she make anything else?"
    script = [
        {"kind": "clarify", "fingerprint": TOY_QUERY, "response": usable},
        {"kind": "rewrite", "fingerprint": f"{TOY_QUERY}\n{usable}", "response": "has susan belbin produced anything else?"},
        {"kind": "clarify", "fingerprint": second, "response": clarification},
        {"kind": "rewrite", "fingerprint": f"{second}\n{clarification.strip()}", "response": rewrite},
    ]
    flags = _toy_flags(tmp_path, "", script, queries=(TOY_QUERY, second))
    run, latency = str(tmp_path / "run.trec"), str(tmp_path / "latency.json")
    assert main(["infer", "--step-wise", *flags["dataset"], *flags["search"], "--out", run]) == 0
    top = {}
    for line in Path(run).read_text().splitlines():
        qid, _, docid, rank = line.split()[:4]
        if rank == "1":
            top[qid] = docid
    assert top == {"s1": "p1", "s2": "p2"}
    assert main(["latency", "--step-wise", *flags["dataset"], "--mock-script", flags["search"][-1],
                 "--out", latency]) == 0
    assert sorted(json.loads(Path(latency).read_text())["per_sample"]) == ["s1", "s2"]
    capsys.readouterr()


def _crdg_output(ws) -> str:
    sparse, dense = _build_indexes(ws)
    dcr = str(ws["out"] / "dcr.jsonl")
    assert main(["crdg", "--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
                 "--mock-script", ws["script"], "--out", dcr, "--config", ws["config"]]) == 0
    return dcr


def test_cut_crdg_output_is_a_data_error(ws, capsys):
    dcr = _crdg_output(ws)
    Path(dcr).write_bytes(Path(dcr).read_bytes()[:24])
    capsys.readouterr()
    out = str(ws["out"] / "x")
    for argv in (
        ["sftdata", "--crdg", dcr, "--dataset", ws["dataset"], "--out", out],
        ["prefdata", "--crdg", dcr, "--dataset", ws["dataset"], "--mock-script", ws["script"], "--out", out],
        ["analyze", "--crdg", dcr, "--out", out],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"data error: {dcr}:1: invalid JSON")


@pytest.mark.parametrize("command", ["analyze", "sftdata"])
def test_crdg_record_missing_a_trajectory_field_is_a_data_error(ws, capsys, command):
    dcr = ws["out"] / "dcr.jsonl"
    dcr.write_text('{"sample_id": "s1", "stop_reason": "early_stop"}\n', encoding="utf-8")
    argv = [command, "--crdg", str(dcr), "--dataset", ws["dataset"], "--out", str(ws["out"] / "x")]
    if command == "analyze":
        argv.remove("--dataset")
        argv.remove(ws["dataset"])
    assert main(argv) == 2
    assert f"data error: {dcr}:1: missing field 'original_query'" in capsys.readouterr().err


def _jsonl_collection(ws) -> str:
    path = str(ws["out"] / "collection.jsonl")
    write_collection(make_tier_corpus(), path)
    return path


# Each case: the JSONL input to cut, and the command line that reads it.
JSONL_INPUTS = {
    "collection": (_jsonl_collection, lambda ws, p: [
        "build-index", "--collection", p, "--out", str(ws["out"] / "i")]),
    "dataset": (lambda ws: ws["dataset"], lambda ws, p: [
        "crdg", "--dataset", p, "--mock-script", ws["script"], "--out", str(ws["out"] / "x")]),
    "sftdata-crdg": (_crdg_output, lambda ws, p: [
        "sftdata", "--crdg", p, "--dataset", ws["dataset"], "--out", str(ws["out"] / "x")]),
    "prefdata-crdg": (_crdg_output, lambda ws, p: [
        "prefdata", "--crdg", p, "--dataset", ws["dataset"], "--mock-script", ws["script"],
        "--out", str(ws["out"] / "x")]),
    "analyze-crdg": (_crdg_output, lambda ws, p: ["analyze", "--crdg", p, "--out", str(ws["out"] / "x")]),
    "mock-script": (lambda ws: ws["script"], lambda ws, p: [
        "latency", "--dataset", ws["dataset"], "--mock-script", p, "--out", str(ws["out"] / "x")]),
}


@pytest.mark.parametrize("case", sorted(JSONL_INPUTS))
def test_every_jsonl_input_cut_mid_line_is_a_data_error(ws, capsys, case):
    make_input, argv = JSONL_INPUTS[case]
    path = make_input(ws)
    lines = Path(path).read_bytes().splitlines(keepends=True)
    assert len(lines) >= 2
    Path(path).write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
    capsys.readouterr()
    assert main(argv(ws, path)) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}:2: ")


@pytest.mark.parametrize("gold", [5, "p1", [True]], ids=["int", "string", "bool-item"])
def test_dataset_gold_ids_that_are_not_a_list_of_ids_are_a_data_error(ws, capsys, gold):
    path = ws["out"] / "data.jsonl"
    rec = {"sample_id": "s1", "history": [], "query": "q", "gold_passage_ids": gold}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["crdg", "--dataset", str(path), "--mock-script", ws["script"],
                 "--out", str(ws["out"] / "x")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}:1: gold_passage_ids must be a list of strings or integers\n"
    )


NESTED_BAD = (
    '{"sample_id":"s1","original_query":"q","f0":{"f":1},"steps":[],"serialized":"",'
    '"stop_reason":"early_stop"}\n'
)


@pytest.mark.parametrize("command", ["analyze", "prefdata", "sftdata"])
def test_crdg_record_with_unreadable_nested_fields_is_a_data_error(ws, capsys, command):
    dcr = ws["out"] / "dcr.jsonl"
    dcr.write_text(NESTED_BAD, encoding="utf-8")
    extra = {"analyze": [], "sftdata": ["--dataset", ws["dataset"]],
             "prefdata": ["--dataset", ws["dataset"], "--mock-script", ws["script"]]}[command]
    assert main([command, "--crdg", str(dcr), *extra, "--out", str(ws["out"] / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {dcr}:1: unreadable trajectory field: KeyError('sparse')")


def test_crdg_record_whose_serialized_is_not_a_string_is_a_data_error(ws, capsys):
    dcr = _crdg_output(ws)
    record = json.loads(Path(dcr).read_text(encoding="utf-8").splitlines()[0])
    record["serialized"] = 5
    Path(dcr).write_text(json.dumps(record) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["sftdata", "--crdg", dcr, "--dataset", ws["dataset"], "--out", str(ws["out"] / "x")]) == 2
    assert capsys.readouterr().err == f"data error: {dcr}:1: serialized 5 is not a string\n"


def test_mock_script_response_that_is_not_a_string_is_a_data_error(ws, capsys):
    sparse, dense = _build_indexes(ws)
    script = Path(ws["script"])
    lines = script.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[0])
    record["response"] = 5
    script.write_text(json.dumps(record) + "\n" + "".join(lines[1:]), encoding="utf-8")
    capsys.readouterr()
    assert main(["crdg", "--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
                 "--mock-script", str(script), "--out", str(ws["out"] / "dcr.jsonl"), "--config", ws["config"]]) == 2
    assert capsys.readouterr().err == f"data error: {script}:1: response 5 is not a string\n"


@pytest.mark.parametrize(
    "line, reason",
    [('{"stop_reason":"early_stop"}', "missing field 'sample_id'"), ("[1]", "expected a JSON object")],
    ids=["no-sample-id", "not-an-object"],
)
def test_resumed_crdg_record_that_names_no_sample_is_a_data_error(ws, capsys, line, reason):
    sparse, dense = _build_indexes(ws)
    dcr = ws["out"] / "dcr.jsonl"
    dcr.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["crdg", "--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
                 "--mock-script", ws["script"], "--out", str(dcr), "--config", ws["config"]]) == 2
    assert capsys.readouterr().err == f"data error: {dcr}:1: {reason}\n"


def _run_file(ws) -> str:
    path = ws["out"] / "run.trec"
    path.write_text("s1 Q0 gold 1 2.0 T\ns1 Q0 tier01 2 1.0 T\ns2 Q0 gold 1 1.0 T\n", encoding="utf-8")
    return str(path)


# Each case: the text input to spoil, and the command line that reads it.
TEXT_INPUTS = {
    "tsv-collection": (lambda ws: ws["collection"], lambda ws, p: [
        "build-index", "--collection", p, "--out", str(ws["out"] / "i")]),
    "qrels": (lambda ws: ws["qrels"], lambda ws, p: [
        "evaluate", "--run", _run_file(ws), "--qrels", p, "--out", str(ws["out"] / "x")]),
    "run": (_run_file, lambda ws, p: [
        "evaluate", "--run", p, "--qrels", ws["qrels"], "--out", str(ws["out"] / "x")]),
    "config": (lambda ws: ws["config"], lambda ws, p: [
        "build-index", "--collection", ws["collection"], "--config", p, "--out", str(ws["out"] / "i")]),
}


@pytest.mark.parametrize("case", sorted(TEXT_INPUTS))
def test_invalid_utf8_in_every_text_input_is_a_data_error(ws, capsys, case):
    make_input, argv = TEXT_INPUTS[case]
    path = make_input(ws)
    lines = Path(path).read_bytes().splitlines(keepends=True)
    assert len(lines) >= 3
    Path(path).write_bytes(b"".join([lines[0], lines[1][:1] + b"\xff" + lines[1][1:], *lines[2:]]))
    capsys.readouterr()
    assert main(argv(ws, path)) == 2
    assert capsys.readouterr().err == f"data error: {path}:2: invalid UTF-8\n"


def _seeded(command: str) -> bool:
    return command in ("crdg", "prefdata", "sftdata", "infer")


@pytest.mark.parametrize(
    "command",
    ["build-index", "embed-index", "crdg", "prefdata", "sftdata", "infer", "fuse", "evaluate", "analyze",
     "latency"],
)
def test_every_command_writes_its_manifest_beside_out(ws, capsys, command):
    dcr = _crdg_output(ws)
    sparse, dense = str(ws["out"] / "sparse.idx.gz"), str(ws["out"] / "dense.idx")
    gen = ["--mock-script", ws["script"]]
    data = ["--dataset", ws["dataset"]]
    idx = ["--sparse-index", sparse, "--dense-index", dense]
    run = _run_file(ws)
    # a directory output names its manifest without the trailing slash
    out = str(ws["out"] / "m") + ("/" if command == "embed-index" else "")
    args = {
        "build-index": ["--collection", ws["collection"]],
        "embed-index": ["--collection", ws["collection"]],
        "crdg": [*data, *idx, *gen],
        "prefdata": ["--crdg", dcr, *data, *idx, *gen],
        "sftdata": ["--crdg", dcr, *data],
        "infer": [*data, *idx, *gen],
        "fuse": [run, run],
        "evaluate": ["--run", run, "--qrels", ws["qrels"]],
        "analyze": ["--crdg", dcr],
        "latency": [*data, *gen],
    }[command]
    seed = ["--seed", "7"] if _seeded(command) else []
    assert main([command, *args, "--out", out, "--config", ws["config"], *seed]) == 0
    capsys.readouterr()
    manifest = load_manifest(str(ws["out"] / "m.manifest.json"))
    assert manifest["command"] == command
    assert manifest["seed"] == (7 if _seeded(command) else None)
    assert list(manifest["outputs"])[0] == out


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("c.tsv", "p1\ta\np2\tb\np1\tc\n", "{path}:3: duplicate passage id 'p1' (first on line 1)"),
        ("c.jsonl", '{"id": "p1", "text": "a"}\n\n{"id": "p1", "text": "b"}\n',
         "{path}:3: duplicate passage id 'p1' (first on line 1)"),
        ("c.jsonl", '{"id": null, "text": "alpha beta"}\n', "{path}:1: id must be a string or an integer"),
        ("c.jsonl", '{"id": "x", "text": {"a": 1}}\n', "{path}:1: text must be a string"),
    ],
    ids=["tsv-duplicate", "jsonl-duplicate", "null-id", "object-text"],
)
def test_bad_collection_lines_are_data_errors_naming_the_line(ws, capsys, name, text, message):
    path = ws["out"] / name
    path.write_text(text, encoding="utf-8")
    for command in ("build-index", "embed-index"):
        assert main([command, "--collection", str(path), "--out", str(ws["out"] / "idx")]) == 2
        assert capsys.readouterr().err == "data error: " + message.format(path=path) + "\n"

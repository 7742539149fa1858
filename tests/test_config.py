from __future__ import annotations

import re
from pathlib import Path

import pytest

from icr.config import _SCHEMA, BM25_PROFILES, Bm25Params, load_config, parse_config_text, resolve_config
from icr.cli import main
from icr.errors import MalformedRecord, TypeMismatch, UnknownKey
from icr.manifest import RunManifest, load_manifest, verify_outputs


def test_empty_config_gives_all_defaults():
    cfg = load_config(None)
    assert cfg.crdg.early_stop == 3
    assert cfg.crdg.max_iters == 10
    assert cfg.fusion.k == 60.0
    assert cfg.fusion.depth == 100
    assert cfg.bm25 == Bm25Params(k1=0.9, b=0.4)
    assert cfg.inference.retrieval_k == 100


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey) as err:
        parse_config_text("foo = 1")
    assert err.value.key == "foo"


def test_a_key_given_twice_is_a_data_error_naming_both_lines(tmp_path, capsys):
    with pytest.raises(MalformedRecord) as err:
        parse_config_text("fusion.k = 1\n# again\nfusion.k = 2\n", source="icr.conf")
    assert str(err.value) == "icr.conf:3: config key 'fusion.k' repeats line 1"
    cfg, run = tmp_path / "icr.conf", tmp_path / "one.trec"
    cfg.write_text("fusion.depth = 5\nfusion.depth = 5\n", encoding="utf-8")
    run.write_text("q1 Q0 d1 1 1.0 ICR\n", encoding="utf-8")
    assert main(["fuse", str(run), "--config", str(cfg), "--out", str(tmp_path / "fused.trec")]) == 2
    assert capsys.readouterr().err == f"data error: {cfg}:2: config key 'fusion.depth' repeats line 1\n"


def test_fusion_k_range_error():
    with pytest.raises(TypeMismatch):
        resolve_config(parse_config_text("fusion.k = -1"))


def test_type_errors():
    with pytest.raises(TypeMismatch):
        parse_config_text("crdg.early_stop = soon")
    with pytest.raises(TypeMismatch):
        parse_config_text("crdg.max_iters = 0")
    with pytest.raises(TypeMismatch):
        parse_config_text("fusion.mode = median")
    with pytest.raises(TypeMismatch):
        parse_config_text("just some words")


@pytest.mark.parametrize(
    "key, raw",
    [("bm25.k1", "nan"), ("bm25.k1", "inf"), ("fusion.k", "nan"), ("gen.temperature", "inf")],
)
def test_non_finite_numbers_rejected(key, raw):
    with pytest.raises(TypeMismatch) as err:
        resolve_config(parse_config_text(f"{key} = {raw}"))
    assert err.value.key == key


def test_qrecc_profile():
    cfg = resolve_config(parse_config_text("bm25.profile = qrecc"))
    assert cfg.bm25 == Bm25Params(k1=0.82, b=0.68)


def test_explicit_bm25_overrides_profile():
    cfg = resolve_config(parse_config_text("bm25.profile = qrecc\nbm25.k1 = 1.2"))
    assert cfg.bm25.k1 == 1.2
    assert cfg.bm25.b == 0.68


def test_b_out_of_range():
    with pytest.raises(TypeMismatch):
        resolve_config(parse_config_text("bm25.b = 1.5"))


def test_full_config_file(tmp_path):
    path = tmp_path / "icr.conf"
    path.write_text(
        "\n".join(
            [
                "# comment",
                "dataset.collection = coll.tsv",
                "crdg.early_stop = 2",
                "crdg.f_mode = sparse_only",
                "fusion.mode = rrf",
                "fusion.depth = 10",
                "inference.retriever = both-report",
                "dense.dim = 32",
                "gen.temperature = 0.2",
                "",
            ]
        ),
        encoding="utf-8",
    )
    cfg = load_config(str(path))
    assert cfg.collection == "coll.tsv"
    assert cfg.crdg.early_stop == 2
    assert cfg.crdg.f_mode == "sparse_only"
    assert cfg.fusion.mode == "rrf"
    assert cfg.inference.retriever == "both-report"
    assert cfg.inference.fusion is cfg.fusion
    assert cfg.dense_dim == 32
    assert cfg.raw["gen.temperature"] == 0.2


def test_manifest_digests_and_tamper_detection(tmp_path):
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    inp.write_text("input data", encoding="utf-8")
    out.write_text("output data", encoding="utf-8")
    manifest = RunManifest("test-cmd", {"fusion.k": 60.0}, seed=7)
    manifest.add_input(str(inp))
    manifest.add_output(str(out))
    path = manifest.write()
    assert path == str(out) + ".manifest.json"
    loaded = load_manifest(path)
    assert loaded["command"] == "test-cmd"
    assert loaded["seed"] == 7
    assert set(loaded["inputs"]) == {str(inp)}
    assert verify_outputs(loaded) == {str(out): True}
    out.write_text("tampered", encoding="utf-8")
    assert verify_outputs(loaded) == {str(out): False}


def test_manifest_digest_stable_across_reruns(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("same bytes", encoding="utf-8")
    m1 = RunManifest("c", {}, seed=1)
    m1.add_output(str(out))
    d1 = load_manifest(m1.write())["outputs"]
    m2 = RunManifest("c", {}, seed=1)
    m2.add_output(str(out))
    d2 = load_manifest(m2.write())["outputs"]
    assert d1 == d2


def test_readme_config_table_matches_the_schema_and_defaults():
    """The README's "Configuration keys" table names every schema key and no
    other, and each default it shows as a number or a backticked literal is
    the value an empty config resolves to."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    cfg = load_config(None)
    table_keys = []
    for key_cell, default_cell in rows:
        keys = re.findall(r"`([^`]+)`", key_cell)
        table_keys += keys
        default = default_cell.strip()
        literal = re.fullmatch(r"`([^`]+)`", default)
        for key in keys:
            if key == "bm25.profile":
                assert BM25_PROFILES[literal.group(1)] == cfg.bm25
                continue
            section_name, name = key.split(".", 1)
            holder = getattr(cfg, section_name, None)
            value = getattr(cfg, name) if section_name == "dataset" else (
                getattr(holder, name) if holder is not None else getattr(cfg, f"{section_name}_{name}"))
            if literal:
                assert value == literal.group(1), key
            elif re.fullmatch(r"-?\d+(\.\d+)?", default):
                assert value == float(default), key
    assert sorted(table_keys) == sorted(_SCHEMA)

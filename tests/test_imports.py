"""Each command loads only the modules it runs, and ``import icr`` none.

Every check runs in a fresh interpreter, since this process has loaded
every module already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icr
from icr.cli import main

from .conftest import build_cli_workspace

ENV = dict(os.environ, PYTHONPATH=str(Path(icr.__file__).resolve().parents[1]))

# runs one command, then prints numpy and the icr modules it loaded
RUN_AND_LIST = (
    "import json, sys\n"
    "from icr.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('icr.'))))\n"
    "sys.exit(code)\n"
)

# what fuse and evaluate have no use for
GENERATION_AND_INDEXES = {
    "icr.crdg", "icr.prefdata", "icr.sftdata", "icr.pipeline", "icr.genclient", "icr.transport",
    "icr.dense_index", "icr.sparse_index",
}


def _loaded(argv: list[str]) -> set[str]:
    done = subprocess.run([sys.executable, "-c", RUN_AND_LIST, *argv], env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.fixture()
def chain(tmp_path):
    """A trajectory file and its dataset, and a run file and its qrels."""
    ws = build_cli_workspace(tmp_path / "data")
    out = tmp_path / "out"
    out.mkdir()
    sparse, dense, dcr = (str(out / name) for name in ("sparse.idx.gz", "dense.idx", "dcr.jsonl"))
    cfg = ["--config", ws["config"]]
    assert main(["build-index", "--collection", ws["collection"], "--out", sparse, *cfg]) == 0
    assert main(["embed-index", "--collection", ws["collection"], "--out", dense, *cfg]) == 0
    assert main(["crdg", "--dataset", ws["dataset"], "--sparse-index", sparse, "--dense-index", dense,
                 "--mock-script", ws["script"], "--out", dcr, *cfg]) == 0
    run = out / "iter_01.trec"
    run.write_text("s1 Q0 gold 1 2.0 ICR\ns1 Q0 tier01 2 1.0 ICR\ns2 Q0 tier02 1 1.0 ICR\n", encoding="utf-8")
    return {**ws, "out": out, "dcr": dcr, "run": str(run)}


def test_commands_without_numpy_work_do_not_load_it(chain):
    out = chain["out"]
    sft = str(out / "sft.jsonl")
    commands = {
        "sftdata": ["sftdata", "--crdg", chain["dcr"], "--dataset", chain["dataset"], "--out", sft],
        "analyze": ["analyze", "--crdg", chain["dcr"], "--out", str(out / "analysis.json")],
        "verify": ["verify", sft + ".manifest.json"],
        "latency": ["latency", "--dataset", chain["dataset"], "--mock-script", chain["script"],
                    "--out", str(out / "latency.json")],
    }
    for name, argv in commands.items():
        loaded = _loaded(argv)
        assert "numpy" not in loaded, name
        assert "icr.config" in loaded, name


def test_fuse_and_evaluate_load_no_generation_or_index_module(chain):
    out = chain["out"]
    fused = str(out / "fused.trec")
    for argv in (
        ["fuse", chain["run"], chain["run"], "--out", fused],
        ["evaluate", "--run", fused, "--qrels", chain["qrels"], "--out", str(out / "report.json")],
    ):
        loaded = _loaded(argv)
        assert "icr.workers" in loaded, argv[0]
        assert not loaded & GENERATION_AND_INDEXES, argv[0]


def test_import_icr_loads_no_submodule_and_every_public_name_resolves():
    code = (
        "import sys, icr\n"
        "print(sorted(m for m in sys.modules if m.startswith('icr.')))\n"
        "print([name for name in icr.__all__ if getattr(icr, name).__name__ != name])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "[]"]
    assert len(icr.__all__) == 30
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        icr.nope  # noqa: B018

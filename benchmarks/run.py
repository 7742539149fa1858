"""Benchmark of the icr CLI chain.

Usage (from the root of a source checkout):

    python3 benchmarks/run.py --workload chain-local --seed 1 --seconds 20 --trace 0

Writes seeded inputs under ``.bench_work/``, runs the ``icr`` CLI stages in
a separate worker process (the program's process), checks every output
against the reference calculations, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, timed with tracing off; with ``--trace 1``
they are the per-layer figures of a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from inputs import make_chain_inputs, make_eval_inputs  # noqa: E402
from worker import digest  # noqa: E402

# Why each workload exists is in README.md. Every workload runs every
# stage, so every run reports every metric; ``reps`` repeats a stage inside
# each round where one run of it is too short to time steadily.
# ``early_stop`` 3 is the library default; 1 keeps a stateless generator
# from re-answering, and F from re-scoring, the same rewrites.
WORKLOADS = {
    "chain-local": {
        "passages": 20000, "samples": 8, "echoes": True, "early_stop": 3, "delay_ms": None,
        "eval_queries": 1000, "reps": {"crdg": 3, "prefdata": 2, "infer": 2, "fuse": 2, "evaluate": 2},
    },
    "chain-remote": {
        "passages": 3000, "samples": 16, "echoes": False, "early_stop": 1, "delay_ms": 20.0,
        "eval_queries": 1000, "reps": {"fuse": 2, "evaluate": 2},
    },
    "eval-scale": {
        "passages": 3000, "samples": 32, "echoes": False, "early_stop": 1, "delay_ms": None,
        "eval_queries": 3000, "reps": {"crdg": 2, "prefdata": 2, "infer": 2},
    },
}
SETUP_REPEATS = 3


def worker_timeout(seconds: float) -> float:
    """Set-up and the round that runs past ``seconds`` take well under 110 s
    on every workload; the worker gets that plus three times the run."""
    return 110 + 3 * seconds

END_TO_END_UNITS = {
    "setup_s": "s",
    "index_mb": "MB",
    "crdg_samples_per_s": "samples/s",
    "prefdata_samples_per_s": "samples/s",
    "infer_samples_per_s": "samples/s",
    "fuse_queries_per_s": "queries/s",
    "evaluate_queries_per_s": "queries/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS_BY_SUFFIX = (
    ("_share", "ratio"), ("_ratio", "ratio"), ("_ms", "ms"), ("_s", "s"), ("mb_hashed", "MB"),
)


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def chain_plan(work: str, inputs, spec: dict, eval_inputs) -> dict:
    """Worker spec for the CLI chain over ``inputs``."""
    p = inputs.paths
    sparse, dense = os.path.join(work, "sparse.idx.gz"), os.path.join(work, "dense.idx")
    cfg = ["--config", p["config"]]
    gen = [] if spec["delay_ms"] is not None else ["--mock-script", p["script"]]
    idx = ["--sparse-index", sparse, "--dense-index", dense]
    out = {k: os.path.join(work, k) for k in ("dcr.jsonl", "pref.jsonl", "sft.jsonl", "run.trec", "iters", "fused.trec", "report.json")}
    n_iters = max(len(s.infer_queries) for s in inputs.samples)
    iter_paths = [os.path.join(out["iters"], f"iter_{i + 1:02d}.trec") for i in range(n_iters)]
    fuse_in, qrels, n_queries = eval_inputs.iter_paths, eval_inputs.qrels_path, len(eval_inputs.lists)
    n = len(inputs.samples)
    reps = spec["reps"]

    def stage(name, argv, items, clear=()):
        out_path = argv[argv.index("--out") + 1]
        return {
            "name": name, "argv": argv, "items": items, "reps": reps.get(name, 1),
            "clear": [out_path, out_path + ".manifest.json", *clear],
            "out": out_path, "hashed": [out_path, *clear], "records": name in ("crdg", "prefdata"),
        }

    def chain_stages(suffix: str, gen_args: list[str]) -> list[dict]:
        o = {k: v + suffix for k, v in out.items()}
        return [
            stage("crdg", ["crdg", "--dataset", p["dataset"], *idx, *gen_args, "--out", o["dcr.jsonl"], *cfg, "--seed", "0"], n),
            stage("prefdata", ["prefdata", "--crdg", o["dcr.jsonl"], "--dataset", p["dataset"], *idx, *gen_args, "--out", o["pref.jsonl"], *cfg, "--seed", "0"], n),
            stage("sftdata", ["sftdata", "--crdg", o["dcr.jsonl"], "--dataset", p["dataset"], "--out", o["sft.jsonl"], *cfg, "--seed", "0"], n),
            stage("infer", ["infer", "--dataset", p["dataset"], "--sparse-index", sparse, *gen_args, "--out", o["run.trec"], "--per-query-dir", o["iters"], *cfg, "--seed", "0"], n, [o["iters"]]),
        ]

    stages = chain_stages("", gen) + [
        stage("fuse", ["fuse", *fuse_in, "--out", out["fused.trec"], *cfg], n_queries),
        stage("evaluate", ["evaluate", "--run", out["fused.trec"], "--qrels", qrels, "--out", out["report.json"], *cfg], n_queries),
    ]
    verify = []
    if spec["delay_ms"] is not None:
        verify = [dict(s, name="mock-" + s["name"], reps=1) for s in chain_stages(".mock", ["--mock-script", p["script"]])]
    return {
        "setup": [
            stage("build-index", ["build-index", "--collection", p["collection"], "--out", sparse, *cfg], 1),
            stage("embed-index", ["embed-index", "--collection", p["collection"], "--out", dense, *cfg], 1),
        ],
        "setup_repeats": SETUP_REPEATS,
        "stages": stages,
        "verify": verify,
        "paths": dict(out, sparse=sparse, dense=dense, iter_paths=iter_paths),
    }


def start_stub(work: str, script: str, delay_ms: float) -> tuple[subprocess.Popen, str, str]:
    log, port_file = os.path.join(work, "stub.log"), os.path.join(work, "stub.port")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "stub.py"), "--script", script, "--delay-ms", str(delay_ms),
         "--log", log, "--port-file", port_file],
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while not os.path.exists(port_file):
        if proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError("generator stub did not start")
        time.sleep(0.02)
    with open(port_file) as fh:
        port = fh.read().strip()
    return proc, f"http://127.0.0.1:{port}/v1/chat/completions", log


def stop(proc: subprocess.Popen | None) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def stub_calls(log: str, marks: list) -> dict[str, dict[str, int]]:
    """Generator requests per stage and fingerprint, from the stub's log."""
    with open(log, "rb") as fh:
        data = fh.read()
    out: dict[str, dict[str, int]] = {}
    prev = 0
    for stage, offset in marks:
        counts = out.setdefault(stage, {})
        for line in data[prev:offset].decode("utf-8").splitlines():
            fp = json.loads(line.split("\t", 2)[2])
            counts[fp] = counts.get(fp, 0) + 1
        prev = offset
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool, work: str, src: str, scale: dict | None = None) -> dict:
    """Make the inputs, run the worker, and return everything the checks and
    metrics need."""
    spec = dict(WORKLOADS[workload], **(scale or {}))
    inputs = make_chain_inputs(
        os.path.join(work, "in"), seed, spec["passages"], spec["samples"], spec["echoes"], spec["early_stop"]
    )
    eval_inputs = make_eval_inputs(os.path.join(work, "eval"), seed, spec["eval_queries"])
    plan = chain_plan(work, inputs, spec, eval_inputs)
    stub = None
    try:
        worker_spec = {
            "src": src, "seconds": seconds, "trace": trace, "setup": plan["setup"],
            "setup_repeats": plan["setup_repeats"], "stages": plan["stages"], "verify": plan["verify"],
            "delay_ms": spec["delay_ms"] or 0.0, "out": os.path.join(work, "result.json"),
        }
        if spec["delay_ms"] is not None:
            stub, url, log = start_stub(work, inputs.paths["script"], spec["delay_ms"])
            worker_spec["env"] = {"ICR_GEN_URL": url}
            worker_spec["stub_log"] = log
        spec_path = os.path.join(work, "worker.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(worker_spec, fh)
        with open(os.path.join(work, "worker.out"), "wb") as out:
            # its own process group, so a timeout also ends the stage it runs
            worker = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                rc = worker.wait(timeout=worker_timeout(seconds))
            except subprocess.TimeoutExpired:
                os.killpg(worker.pid, signal.SIGKILL)
                worker.wait()
                raise
        if rc != 0:
            raise RuntimeError(f"benchmark worker exited with code {rc}; see {out.name}")
    finally:
        stop(stub)
    with open(worker_spec["out"], encoding="utf-8") as fh:
        result = json.load(fh)
    if spec["delay_ms"] is not None:
        result["gen_calls"] = stub_calls(worker_spec["stub_log"], result["stub_marks"])
    else:
        result["gen_calls"] = result["mock_calls"]
    return {"spec": spec, "inputs": inputs, "eval": eval_inputs, "plan": plan, "result": result}


def verify(run: dict) -> list[str]:
    """Every check; an empty list means the outputs are correct."""
    return check_repeats(run) + check_outputs(run)


def check_repeats(run: dict) -> list[str]:
    """Every run of a stage wrote the output that check_outputs checks."""
    plan = run["plan"]
    hashed = {s["name"]: s["hashed"] for s in plan["setup"] + plan["stages"] + plan["verify"]}
    bad = []
    for stage, runs in stage_runs(run["result"]).items():
        want = digest(hashed[stage])
        differ = sum(1 for r in runs if r["digest"] != want)
        if differ:
            bad.append(f"{stage}: {differ} of {len(runs)} runs wrote other output than the checked one")
    return bad


def check_outputs(run: dict) -> list[str]:
    """The checks of checks.py on the outputs left by the last run of each stage."""
    inputs, plan, result = run["inputs"], run["plan"], run["result"]
    paths = plan["paths"]
    bad = list(result["errors"])
    records = checks.read_jsonl(paths["dcr.jsonl"])
    pairs = checks.read_jsonl(paths["pref.jsonl"])
    bad += checks.check_crdg(records, inputs)
    for stage in plan["stages"][:4]:
        if stage["name"] != "sftdata":
            passes = len(result["rounds"]) * stage["reps"]
            bad += checks.check_calls(result["gen_calls"].get(stage["name"], {}), passes, records, pairs, inputs, stage["name"])
    bad += checks.check_prefdata(pairs, records, inputs)
    bad += checks.check_sft(checks.read_jsonl(paths["sft.jsonl"]), records)
    bad += checks.check_infer(paths["run.trec"], paths["iter_paths"], inputs)
    bad += checks.check_dense(paths["dense"], inputs)
    bad += checks.check_fused(paths["fused.trec"], run["eval"].lists)
    bad += checks.check_report(paths["report.json"], paths["fused.trec"], run["eval"].qrels)
    for name in result["verify"]:
        stage = name[len("mock-"):]
        primary = {"crdg": "dcr.jsonl", "prefdata": "pref.jsonl", "sftdata": "sft.jsonl", "infer": "run.trec"}[stage]
        with open(paths[primary], "rb") as a, open(paths[primary] + ".mock", "rb") as b:
            if a.read() != b.read():
                bad.append(f"{stage}: output through the remote generator differs from --mock-script")
    return bad


def stage_runs(result: dict) -> dict[str, list[dict]]:
    """Every run of every stage (set-up, rounds, verify), by stage name."""
    out: dict[str, list[dict]] = {}
    for setup in result["setup"]:
        for name, r in setup.items():
            out.setdefault(name, []).append(r)
    for rnd in result["rounds"]:
        for name, runs in rnd.items():
            out.setdefault(name, []).extend(runs)
    for name, r in result["verify"].items():
        out.setdefault(name, []).append(r)
    return out


def operations(run: dict) -> tuple[int, int]:
    """(attempted, failed): every CLI stage run, plus every record that a
    crdg or prefdata run wrote. A stage run fails with a non-zero exit; a
    record fails with an ``error`` field or a ``provider_failure`` stop."""
    runs = [r for rs in stage_runs(run["result"]).values() for r in rs]
    attempted = len(runs) + sum(r["records"] for r in runs)
    failed = sum(1 for r in runs if r["rc"] != 0) + sum(r["failed"] for r in runs)
    return attempted, failed


def end_to_end(run: dict) -> dict[str, float]:
    result, plan = run["result"], run["plan"]
    paths = plan["paths"]

    def rate(stage: dict) -> float:
        times = [r["seconds"] for rnd in result["rounds"] for r in rnd[stage["name"]]]
        return stage["items"] / statistics.median(times)

    by_name = {s["name"]: s for s in plan["stages"]}
    index_bytes = os.path.getsize(paths["sparse"]) + sum(
        os.path.getsize(os.path.join(paths["dense"], f)) for f in os.listdir(paths["dense"])
    )
    return {
        "setup_s": statistics.median(sum(r["seconds"] for r in s.values()) for s in result["setup"]),
        "index_mb": index_bytes / 1e6,
        "crdg_samples_per_s": rate(by_name["crdg"]),
        "prefdata_samples_per_s": rate(by_name["prefdata"]),
        "infer_samples_per_s": rate(by_name["infer"]),
        "fuse_queries_per_s": rate(by_name["fuse"]),
        "evaluate_queries_per_s": rate(by_name["evaluate"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "icr", "cli.py")):
        print(f"benchmark: no icr source tree under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace), work, src)
        bad = verify(run)
        attempted, failed = operations(run)
        if args.trace:
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in run["result"]["trace"].items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(run).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))
    for line in bad[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

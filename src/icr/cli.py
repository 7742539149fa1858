"""Command-line surface.

Subcommands: build-index, embed-index, crdg, prefdata, sftdata, infer,
fuse, evaluate, analyze, latency. Every stochastic command takes --seed,
every command takes --config (strict key-value file), and every invocation
writes a run manifest beside its primary output.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import crdg as crdg_mod
from . import prefdata as prefdata_mod
from . import sftdata as sftdata_mod
from .config import Config, load_config
from .corpus import load_collection, load_cqr_dataset, load_qrels
from .dense_index import (
    HashEmbeddingProvider,
    RemoteEmbeddingProvider,
    build_dense_index,
    load_dense_index,
    save_dense_index,
)
from .errors import DataError, MissingRequired, ProviderError
from .evaluation import MODE_RETRIEVERS, delta_f_profile, evaluate_run, gsr, lsr
from .fusion import FusionConfig, fuse
from .genclient import RemoteChatClient, ScriptedMock
from .manifest import RunManifest
from .pipeline import RETRIEVER_CHOICES, emit_per_query_runs, emit_run, measure_latency, run_batch
from .ranking import RankedList, read_run, write_run
from .sparse_index import build_sparse_index, load_sparse_index, save_sparse_index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(message)


def _require_path(value: str | None, name: str) -> str:
    if not value:
        raise MissingRequired(name)
    return value


def _make_client(args, config: Config):
    if getattr(args, "mock_script", None):
        return ScriptedMock.from_jsonl(args.mock_script)
    return RemoteChatClient.from_env(temperature=config.gen_temperature)


def _make_provider(args, config: Config):
    if getattr(args, "embed_url", None):
        return RemoteEmbeddingProvider(args.embed_url, dim=config.dense_dim)
    return HashEmbeddingProvider(dim=config.dense_dim)


def _load_indexes(args, mode: str):
    """The indexes (and the dense side's provider) that ``mode`` searches."""
    need_sparse, need_dense = MODE_RETRIEVERS[mode]
    sparse = dense = provider = None
    if need_sparse:
        sparse = load_sparse_index(_require_path(args.sparse_index, "--sparse-index"))
    if need_dense:
        dense = load_dense_index(_require_path(args.dense_index, "--dense-index"))
        if dense.provider_name.startswith("hash-"):
            provider = HashEmbeddingProvider(dim=dense.dim)
        else:
            provider = RemoteEmbeddingProvider(
                _require_path(args.embed_url, "--embed-url"),
                dim=dense.dim,
                name=dense.provider_name,
            )
    return sparse, dense, provider


def _dataset(args, config: Config):
    path = getattr(args, "dataset", None) or config.train or config.test
    path = _require_path(path, "--dataset")
    return path, load_cqr_dataset(path)


def cmd_build_index(args) -> int:
    config = load_config(args.config)
    collection_path = _require_path(args.collection or config.collection, "--collection")
    fmt = args.format or config.collection_format
    index = build_sparse_index(load_collection(collection_path, fmt), config.bm25)
    save_sparse_index(index, args.out)
    manifest = RunManifest("build-index", config.raw, seed=None)
    manifest.add_input(collection_path)
    manifest.add_output(args.out)
    manifest.write()
    print(f"indexed {index.doc_count} passages -> {args.out}")
    return EXIT_OK


def cmd_embed_index(args) -> int:
    config = load_config(args.config)
    collection_path = _require_path(args.collection or config.collection, "--collection")
    fmt = args.format or config.collection_format
    provider = _make_provider(args, config)
    index = build_dense_index(load_collection(collection_path, fmt), provider)
    save_dense_index(index, args.out)
    manifest = RunManifest("embed-index", config.raw, seed=None)
    manifest.add_input(collection_path)
    manifest.add_output(args.out)
    manifest.write(args.out.rstrip("/") + ".manifest.json")
    print(f"embedded {index.doc_count} passages (dim {index.dim}) -> {args.out}")
    return EXIT_OK


def cmd_crdg(args) -> int:
    config = load_config(args.config)
    dataset_path, samples = _dataset(args, config)
    sparse, dense, provider = _load_indexes(args, config.crdg.f_mode)
    client = _make_client(args, config)
    stats = crdg_mod.build_crdg_dataset(
        samples, client, sparse, dense, provider, config.crdg, args.out, seed=args.seed
    )
    manifest = RunManifest("crdg", config.raw, seed=args.seed)
    for p in (dataset_path, args.sparse_index, args.dense_index, args.mock_script):
        manifest.add_input(p)
    manifest.add_output(args.out)
    manifest.write()
    print(f"trajectories written={stats.written} skipped={stats.skipped} errors={stats.errors}")
    return EXIT_OK


def cmd_prefdata(args) -> int:
    config = load_config(args.config)
    dataset_path, samples = _dataset(args, config)
    trajectories = crdg_mod.load_trajectories(args.crdg)
    sparse, dense, provider = _load_indexes(args, config.crdg.f_mode)
    client = _make_client(args, config)
    stats = prefdata_mod.build_pref_dataset(
        trajectories, samples, client, sparse, dense, provider, config.crdg,
        args.out, seed=args.seed, multi_ot=args.multi_ot,
    )
    manifest = RunManifest("prefdata", config.raw, seed=args.seed)
    for p in (args.crdg, dataset_path, args.sparse_index, args.dense_index, args.mock_script):
        manifest.add_input(p)
    manifest.add_output(args.out)
    manifest.write()
    print(
        f"pairs ot={stats.ot} ut={stats.ut} id={stats.id} "
        f"not_constructible={stats.not_constructible} errors={stats.errors}"
    )
    return EXIT_OK


def cmd_sftdata(args) -> int:
    config = load_config(args.config)
    dataset_path, samples = _dataset(args, config)
    records = crdg_mod.read_crdg_records(args.crdg)
    stats = sftdata_mod.emit_sft_dataset(records, samples, args.out)
    manifest = RunManifest("sftdata", config.raw, seed=args.seed)
    manifest.add_input(args.crdg)
    manifest.add_input(dataset_path)
    manifest.add_output(args.out)
    manifest.write()
    print(
        f"sft records={stats.written} skipped_empty={stats.skipped_empty} "
        f"skipped_errors={stats.skipped_errors}"
    )
    return EXIT_OK


def cmd_infer(args) -> int:
    config = load_config(args.config)
    dataset_path, samples = _dataset(args, config)
    inference = config.inference
    if args.retriever:
        inference.retriever = args.retriever
    inference.step_wise = args.step_wise
    sparse, dense, provider = _load_indexes(args, inference.retriever)
    client = _make_client(args, config)
    results = run_batch(samples, client, inference, sparse, dense, provider)
    manifest = RunManifest("infer", config.raw, seed=args.seed)
    for p in (dataset_path, args.sparse_index, args.dense_index, args.mock_script):
        manifest.add_input(p)
    single = len(results) == 1
    for name, batch in results.items():
        out = args.out if single else f"{args.out}.{name}"
        emit_run(batch, out)
        manifest.add_output(out)
        if args.per_query_dir:
            directory = args.per_query_dir if single else f"{args.per_query_dir}.{name}"
            for p in emit_per_query_runs(batch, directory):
                manifest.add_output(p)
        print(f"{name}: wrote fused run for {len(batch)} samples -> {out}")
    manifest.write(args.out + ".manifest.json")
    return EXIT_OK


def cmd_fuse(args) -> int:
    config = load_config(args.config)
    fusion = FusionConfig(
        k=args.k if args.k is not None else config.fusion.k,
        mode=args.mode or config.fusion.mode,
        depth=args.depth if args.depth is not None else config.fusion.depth,
    )
    runs = [read_run(p) for p in args.runs]
    sample_ids = list(dict.fromkeys(qid for run in runs for qid in run))
    fused = []
    for qid in sample_ids:
        lists = [run.get(qid, RankedList(qid, [])) for run in runs]
        fused.append(fuse(lists, fusion, tag=qid))
    write_run(fused, args.out)
    manifest = RunManifest("fuse", config.raw, seed=None)
    for p in args.runs:
        manifest.add_input(p)
    manifest.add_output(args.out)
    manifest.write()
    print(f"fused {len(args.runs)} runs over {len(sample_ids)} queries -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    report = evaluate_run(run, qrels)
    text = json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    manifest = RunManifest("evaluate", config.raw, seed=None)
    manifest.add_input(args.run)
    manifest.add_input(args.qrels)
    manifest.add_output(args.out)
    manifest.write()
    print(text)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = load_config(args.config)
    trajectories = crdg_mod.load_trajectories(args.crdg)
    paths = [t.f_path() for t in trajectories]
    lengths = [int(x) for x in args.lengths.split(",")] if args.lengths else [4, 5, 6]
    report = {
        "num_trajectories": len(paths),
        "empty_trajectories": sum(1 for p in paths if len(p) == 1),
        "lsr": lsr(paths),
        "gsr": gsr(paths),
        "delta_f": {str(n): means for n, means in delta_f_profile(paths, lengths).items()},
    }
    text = json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    manifest = RunManifest("analyze", config.raw, seed=None)
    manifest.add_input(args.crdg)
    manifest.add_output(args.out)
    manifest.write()
    print(text)
    return EXIT_OK


def cmd_latency(args) -> int:
    config = load_config(args.config)
    dataset_path, samples = _dataset(args, config)
    inference = config.inference
    inference.step_wise = args.step_wise
    client = _make_client(args, config)
    report = measure_latency(samples, client, inference)
    text = json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    manifest = RunManifest("latency", config.raw, seed=None)
    manifest.add_input(dataset_path)
    manifest.add_output(args.out)
    manifest.write()
    print(text)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
    p.add_argument("--config", help="key-value config file")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed for stochastic steps")


def _add_gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mock-script", help="JSONL script for the deterministic mock generator")


def _add_index_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sparse-index", help="path to a saved sparse index")
    p.add_argument("--dense-index", help="path to a saved dense index directory")
    p.add_argument("--embed-url", help="remote embedding endpoint (default: offline hash provider)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="icr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build a BM25 index over a passage collection")
    p.add_argument("--collection", help="TSV or JSONL collection file")
    p.add_argument("--format", choices=("tsv", "jsonl"), help="collection format (default: by extension)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("embed-index", help="embed a collection into a dense index")
    p.add_argument("--collection")
    p.add_argument("--format", choices=("tsv", "jsonl"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--embed-url", help="remote embedding endpoint (default: offline hash provider)")
    _add_common(p)
    p.set_defaults(func=cmd_embed_index)

    p = sub.add_parser("crdg", help="construct clarification-rewriting trajectories")
    p.add_argument("--dataset", help="CQR dataset JSONL")
    p.add_argument("--out", required=True)
    _add_index_args(p)
    _add_gen_args(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_crdg)

    p = sub.add_parser("prefdata", help="build preference pairs from trajectories")
    p.add_argument("--crdg", required=True, help="trajectory dataset JSONL")
    p.add_argument("--dataset", help="CQR dataset JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--multi-ot", action="store_true", help="sample 1-4 redundant overthinking steps")
    _add_index_args(p)
    _add_gen_args(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_prefdata)

    p = sub.add_parser("sftdata", help="emit span-labeled fine-tuning records")
    p.add_argument("--crdg", required=True)
    p.add_argument("--dataset")
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_sftdata)

    p = sub.add_parser("infer", help="iterative inference, retrieval, and fusion")
    p.add_argument("--dataset")
    p.add_argument("--out", required=True, help="fused TREC run path")
    p.add_argument("--retriever", choices=RETRIEVER_CHOICES)
    p.add_argument("--per-query-dir", help="also write one TREC run per iteration index")
    p.add_argument("--step-wise", action="store_true", help="drive clarify/rewrite prompts round by round")
    _add_index_args(p)
    _add_gen_args(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("fuse", help="fuse N TREC runs (ordered by iteration)")
    p.add_argument("runs", nargs="+", help="TREC run files in iteration order")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("rrf", "prrf", "final_only"))
    p.add_argument("--k", type=float)
    p.add_argument("--depth", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="score a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="JSON report path (also printed)")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="success rates and per-step quality deltas")
    p.add_argument("--crdg", required=True)
    p.add_argument("--lengths", help="comma-separated trajectory lengths (default 4,5,6)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("latency", help="per-sample trajectory-generation latency")
    p.add_argument("--dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--step-wise", action="store_true")
    _add_gen_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_latency)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ProviderError as e:
        print(f"provider error: {e}", file=sys.stderr)
        return EXIT_PROVIDER
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

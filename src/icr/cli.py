"""Command-line surface.

Subcommands: build-index, embed-index, crdg, prefdata, sftdata, infer,
fuse, evaluate, analyze, latency, verify. Every stochastic command takes
--seed. Every command but verify takes --config (strict key-value file)
and writes a run manifest at ``<--out>.manifest.json``; verify re-hashes
the files such a manifest lists.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from dataclasses import replace

from .config import _SCHEMA, FUSION_MODES, MODE_RETRIEVERS, RETRIEVER_CHOICES, Config, Setting, load_config
from .corpus import load_collection, load_cqr_dataset, load_qrels, replacing
from .errors import DataError, MissingRequired, ProviderError
from .manifest import RunManifest, load_manifest, verify_outputs

# Above are the modules that ``main`` loads for every command. Each command
# imports the others that it runs, so verify, sftdata and analyze, which
# need no numpy, do not load it.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(message)


def _checked(setting: Setting):
    """An argparse type that checks a flag as ``setting`` checks its config
    key; a bad value is a usage error naming the flag."""

    def convert(raw: str):
        try:
            return setting.parse(raw)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


def _lengths(raw: str) -> list[int]:
    return [_checked(Setting(int, minimum=1))(item) for item in raw.split(",")]


def _require_path(value: str | None, name: str) -> str:
    if not value:
        raise MissingRequired(name)
    return value


def _make_client(args, config: Config):
    from .genclient import RemoteChatClient, ScriptedMock

    if args.mock_script:
        return ScriptedMock.from_jsonl(args.mock_script)
    return RemoteChatClient.from_env(temperature=config.gen_temperature)


def _make_provider(args, config: Config):
    from .dense_index import HashEmbeddingProvider, RemoteEmbeddingProvider

    if args.embed_url:
        return RemoteEmbeddingProvider(args.embed_url, dim=config.dense_dim)
    return HashEmbeddingProvider(dim=config.dense_dim)


def _load_indexes(args, mode: str):
    """The ``evaluation.Indexes`` (and the dense side's provider) that
    ``mode`` searches."""
    from .evaluation import Indexes
    from .sparse_index import load_sparse_index  # the dense index loads it too

    need_sparse, need_dense = MODE_RETRIEVERS[mode]
    sparse = load_sparse_index(_require_path(args.sparse_index, "--sparse-index")) if need_sparse else None
    if not need_dense:
        return Indexes(sparse)
    from .dense_index import HashEmbeddingProvider, RemoteEmbeddingProvider, load_dense_index

    dense = load_dense_index(_require_path(args.dense_index, "--dense-index"))
    if dense.provider_name.startswith("hash-"):
        return Indexes(sparse, dense, HashEmbeddingProvider(dim=dense.dim))
    url = _require_path(args.embed_url, "--embed-url")
    return Indexes(sparse, dense, RemoteEmbeddingProvider(url, dim=dense.dim, name=dense.provider_name))


def _dataset(args, default: str | None):
    """``--dataset``, or else ``default``, the config key the command reads
    (``dataset.train`` or ``dataset.test``), and its samples."""
    path = _require_path(args.dataset or default, "--dataset")
    return path, load_cqr_dataset(path)


def _write_report(kind: str, report: dict, samples: int, path: str) -> None:
    """Write a JSON report to ``path`` and print a one-line summary."""
    with replacing(path) as temp, open(temp, "w", encoding="utf-8") as fh:
        # streamed, so no string holds the whole report; with an indent,
        # json.dumps runs the same Python encoder, so the bytes are the same
        json.dump(report, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {kind} report over {samples} samples -> {path}")


# Each command returns the input and output paths that ``main`` records in
# its manifest.


def cmd_build_index(args, config: Config) -> tuple[list, list]:
    from .sparse_index import build_sparse_index, save_sparse_index

    collection_path = _require_path(args.collection or config.collection, "--collection")
    fmt = args.format or config.collection_format
    index = build_sparse_index(load_collection(collection_path, fmt), config.bm25)
    save_sparse_index(index, args.out)
    print(f"indexed {index.doc_count} passages -> {args.out}")
    return [collection_path], [args.out]


def cmd_embed_index(args, config: Config) -> tuple[list, list]:
    from .dense_index import build_dense_index, save_dense_index

    collection_path = _require_path(args.collection or config.collection, "--collection")
    fmt = args.format or config.collection_format
    provider = _make_provider(args, config)
    index = build_dense_index(load_collection(collection_path, fmt), provider)
    save_dense_index(index, args.out)
    print(f"embedded {index.doc_count} passages (dim {index.dim}) -> {args.out}")
    return [collection_path], [args.out]


def cmd_crdg(args, config: Config) -> tuple[list, list]:
    from .crdg import build_crdg_dataset

    dataset_path, samples = _dataset(args, config.train)
    indexes = _load_indexes(args, config.crdg.f_mode)
    client = _make_client(args, config)
    stats = build_crdg_dataset(samples, client, indexes, config.crdg, args.out)
    print(f"trajectories written={stats.written} skipped={stats.skipped} errors={stats.errors}")
    return [dataset_path, args.sparse_index, args.dense_index, args.mock_script], [args.out]


def cmd_prefdata(args, config: Config) -> tuple[list, list]:
    from .crdg import load_trajectories
    from .prefdata import build_pref_dataset

    dataset_path, samples = _dataset(args, config.train)
    trajectories = load_trajectories(args.crdg)
    indexes = _load_indexes(args, config.crdg.f_mode)
    client = _make_client(args, config)
    stats = build_pref_dataset(
        trajectories, samples, client, indexes, config.crdg, args.out, seed=args.seed, multi_ot=args.multi_ot
    )
    print(
        f"pairs ot={stats.ot} ut={stats.ut} id={stats.id} "
        f"not_constructible={stats.not_constructible} errors={stats.errors}"
    )
    return [args.crdg, dataset_path, args.sparse_index, args.dense_index, args.mock_script], [args.out]


def cmd_sftdata(args, config: Config) -> tuple[list, list]:
    from .crdg import read_crdg_records
    from .sftdata import emit_sft_dataset

    dataset_path, samples = _dataset(args, config.train)
    records = read_crdg_records(args.crdg)
    stats = emit_sft_dataset(records, samples, args.out)
    print(
        f"sft records={stats.written} skipped_empty={stats.skipped_empty} "
        f"skipped_errors={stats.skipped_errors}"
    )
    return [args.crdg, dataset_path], [args.out]


def cmd_infer(args, config: Config) -> tuple[list, list]:
    from .pipeline import emit_per_query_runs, emit_run, run_batch

    dataset_path, samples = _dataset(args, config.test)
    inference = config.inference
    if args.retriever:
        inference.retriever = args.retriever
    inference.step_wise = args.step_wise
    indexes = _load_indexes(args, inference.retriever)
    client = _make_client(args, config)
    results = run_batch(samples, client, inference, indexes)
    outputs = []
    single = len(results) == 1
    for name, batch in results.items():
        out = args.out if single else f"{args.out}.{name}"
        emit_run(batch, out)
        outputs.append(out)
        if args.per_query_dir:
            directory = args.per_query_dir if single else f"{args.per_query_dir}.{name}"
            outputs += emit_per_query_runs(batch, directory)
        print(f"{name}: wrote fused run for {len(batch)} samples -> {out}")
    return [dataset_path, args.sparse_index, args.dense_index, args.mock_script], outputs


def cmd_fuse(args, config: Config) -> tuple[list, list]:
    from .fusion import fuse
    from .ranking import RankedList, write_run
    from .workers import fuse_files

    flags = {"k": args.k, "mode": args.mode, "depth": args.depth}
    fusion = replace(config.fusion, **{name: value for name, value in flags.items() if value is not None})

    def write(runs, qids, fh):
        write_run((fuse([run.get(qid, RankedList(qid)) for run in runs], fusion, tag=qid) for qid in qids), fh)

    queries = fuse_files(args.runs, write, args.out)
    print(f"fused {len(args.runs)} runs over {queries} queries -> {args.out}")
    return args.runs, [args.out]


def cmd_evaluate(args, config: Config) -> tuple[list, list]:
    from .ranking import read_run
    from .workers import evaluate_file

    qrels_path = _require_path(args.qrels or config.qrels, "--qrels")
    # the workers inherit the qrels, so they are loaded first; a bad run
    # file is still the error reported when both are bad
    try:
        qrels = load_qrels(qrels_path)
    except (DataError, OSError):
        read_run(args.run)
        raise
    report = evaluate_file(args.run, qrels)
    _write_report("evaluate", report, report["num_samples"], args.out)
    return [args.run, qrels_path], [args.out]


def cmd_analyze(args, config: Config) -> tuple[list, list]:
    from .crdg import load_trajectories
    from .evaluation import delta_f_profile, gsr, lsr

    trajectories = load_trajectories(args.crdg)
    paths = [t.f_path() for t in trajectories]
    lengths = args.lengths or [4, 5, 6]
    report = {
        "num_trajectories": len(paths),
        "empty_trajectories": sum(1 for p in paths if len(p) == 1),
        "lsr": lsr(paths),
        "gsr": gsr(paths),
        "delta_f": {str(n): means for n, means in delta_f_profile(paths, lengths).items()},
    }
    _write_report("analyze", report, len(paths), args.out)
    return [args.crdg], [args.out]


def cmd_latency(args, config: Config) -> tuple[list, list]:
    from .pipeline import measure_latency

    dataset_path, samples = _dataset(args, config.test)
    inference = config.inference
    inference.step_wise = args.step_wise
    client = _make_client(args, config)
    report = measure_latency(samples, client, inference)
    _write_report("latency", report, len(samples), args.out)
    return [dataset_path], [args.out]


def cmd_verify(args, config: Config) -> tuple[list, list]:
    manifest = load_manifest(args.manifest)
    checked = bad = 0
    for section in ("inputs", "outputs"):
        for path, ok in verify_outputs(manifest, section).items():
            checked += 1
            if not ok:
                bad += 1
                print(f"{'changed' if os.path.exists(path) else 'missing'}: {path}")
    if bad:
        raise DataError(f"{args.manifest}: {bad} of {checked} files differ from their recorded digests")
    print(f"verified {checked} files -> {args.manifest}")
    return [args.manifest], []


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
    # commands without --seed record none; verify, without --out, writes no manifest
    parser.set_defaults(seed=None, config=None, out=None)
    sub = parser.add_subparsers(dest="command", required=True)
    formats = _SCHEMA["dataset.collection_format"].choices

    p = sub.add_parser("build-index", help="build a BM25 index over a passage collection")
    p.add_argument("--collection", help="TSV or JSONL collection file")
    p.add_argument("--format", choices=formats, help="collection format (default: by extension)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("embed-index", help="embed a collection into a dense index")
    p.add_argument("--collection")
    p.add_argument("--format", choices=formats)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--embed-url", help="remote embedding endpoint (default: offline hash provider)")
    _add_common(p)
    p.set_defaults(func=cmd_embed_index)

    p = sub.add_parser("crdg", help="construct clarification-rewriting trajectories")
    p.add_argument("--dataset", help="CQR dataset JSONL (default: dataset.train)")
    p.add_argument("--out", required=True)
    _add_index_args(p)
    _add_gen_args(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_crdg)

    p = sub.add_parser("prefdata", help="build preference pairs from trajectories")
    p.add_argument("--crdg", required=True, help="trajectory dataset JSONL")
    p.add_argument("--dataset", help="CQR dataset JSONL (default: dataset.train)")
    p.add_argument("--out", required=True)
    p.add_argument("--multi-ot", action="store_true", help="sample 1-4 redundant overthinking steps")
    _add_index_args(p)
    _add_gen_args(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_prefdata)

    p = sub.add_parser("sftdata", help="emit span-labeled fine-tuning records")
    p.add_argument("--crdg", required=True)
    p.add_argument("--dataset", help="CQR dataset JSONL (default: dataset.train)")
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_sftdata)

    p = sub.add_parser("infer", help="iterative inference, retrieval, and fusion")
    p.add_argument("--dataset", help="CQR dataset JSONL (default: dataset.test)")
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
    p.add_argument("--mode", choices=FUSION_MODES)
    p.add_argument("--k", type=_checked(_SCHEMA["fusion.k"]))
    p.add_argument("--depth", type=_checked(_SCHEMA["fusion.depth"]))
    _add_common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="score a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", help="TREC qrels file (default: dataset.qrels)")
    p.add_argument("--out", required=True, help="JSON report path")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="success rates and per-step quality deltas")
    p.add_argument("--crdg", required=True)
    p.add_argument("--lengths", type=_lengths, help="comma-separated trajectory lengths (default 4,5,6)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("latency", help="per-sample trajectory-generation latency")
    p.add_argument("--dataset", help="CQR dataset JSONL (default: dataset.test)")
    p.add_argument("--out", required=True)
    p.add_argument("--step-wise", action="store_true")
    _add_gen_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("verify", help="re-hash every input and output a run manifest lists")
    p.add_argument("manifest", help="a <output>.manifest.json file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its manifest at ``<--out>.manifest.json``
    (``verify`` has no ``--out`` and writes none). In the main thread,
    SIGTERM meanwhile raises ``SystemExit(143)``, so every clean-up runs."""
    parser = build_parser()
    main_thread = threading.current_thread() is threading.main_thread()
    if main_thread:
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(argv)
        config = load_config(args.config)
        manifest = RunManifest(args.command, config.raw, seed=args.seed, argv=argv)
        inputs, outputs = args.func(args, config)
        for path in inputs:
            manifest.add_input(path)
        for path in outputs:
            manifest.add_output(path)
        if args.out is not None:
            manifest.write(args.out.rstrip("/") + ".manifest.json")
        return EXIT_OK
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
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())

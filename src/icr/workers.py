"""Forked worker processes, which ``icr fuse`` and ``icr evaluate`` run on.

Both commands cut their run files into byte ranges that hold whole queries:
one range per usable CPU, or more where the files exceed ``BUDGET`` bytes
per range (``_range_count``). ``_in_workers`` runs the ranges on at most one
process per CPU, each working through a contiguous block of them in order:
the first block in this process and each other one in a forked worker,
which sends back only a small pickled result. So a process holds one range
at a time. When a range fails, or the ranges turn out not to hold whole
queries in the file's own order, this process does the whole work itself,
so the bytes written and the errors raised are those of a single process.
Every worker is reaped and every temporary file removed, on success, on an
error, on Ctrl-C and on SIGTERM. The workers run ``read_run``, ``fuse``,
``write_run`` and the metrics, none of which calls BLAS, so numpy's BLAS
threads are never used after a fork.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import re
import shutil
import signal
from typing import BinaryIO, Callable, Sequence, TextIO

from .corpus import Qrels, replacing
from .evaluation import evaluate_run, run_report, score_queries
from .ranking import Run, read_run

#: Bytes of run files per range, at most. A range's run columns and fused
#: lists take several times its bytes, so this holds a process to a few tens
#: of MB whatever the input's size, while a range's fixed cost (opening,
#: parsing set-up, a shard write) stays small, and a run of a few MB, such
#: as a 3 MB one on two CPUs, still takes one range per CPU.
BUDGET = 2 << 20

#: Bytes read at once while looking for a boundary (``_first_line``). The
#: search starts at the boundary before, usually a range's length back, so
#: a small block reads little past the line it finds.
_BLOCK = 1 << 16


def usable_cpus() -> int:
    """How many processes share the work: the CPUs this process may run on,
    or one where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _range_count(size: int, cpus: int) -> int:
    """How many ranges ``size`` bytes of run files are cut into: one per CPU,
    or the least multiple of ``cpus`` that holds each range to ``BUDGET``."""
    return cpus * max(1, -(-size // (cpus * BUDGET)))


def _blocks(m: int, cpus: int) -> list[range]:
    """Ranges ``0, ..., m - 1`` split into contiguous blocks of near-equal
    length, one per process, at most ``cpus`` of them."""
    n = min(m, cpus)
    return [range(p * m // n, (p + 1) * m // n) for p in range(n)]


def _in_workers(work: Callable[[int], object], blocks: list[range]) -> list:
    """``[work(0), ..., work(m - 1)]`` over the ranges of ``blocks``. The
    first block runs here and each other one in a forked worker, which
    pickles its results back through a pipe; a block runs in order and
    stops at its first failed range (``_run_block``). A worker that did not
    exit 0 gives None for each range of its block. Leaving closes the read
    ends of the pipes, so a worker still sending dies of a broken pipe, then
    kills and reaps every worker not yet waited for."""
    pids: list[int] = []
    reads: list[BinaryIO] = []
    try:
        for block in blocks[1:]:
            read_end, write_end = os.pipe()
            reads.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send(work, block, reads, write_end)
            finally:
                os.close(write_end)
            pids.append(pid)
        results = _run_block(work, blocks[0])
        for pid, src, block in zip(list(pids), reads, blocks[1:]):
            sent = src.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            results += pickle.loads(sent) if status == 0 else [None] * len(block)
        return results
    finally:
        for src in reads:
            src.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _run_block(work: Callable[[int], object], block: range) -> list:
    """``work(s)`` for each range of ``block`` in order, where one that
    raised an Exception gives None. A None result fails the command's
    ranges, so the rest of the block is not run and gives None too."""
    results = []
    for s in block:
        try:
            results.append(work(s))
        except Exception:
            results.append(None)
        if results[-1] is None:
            break
    return results + [None] * (len(block) - len(results))


def _send(work: Callable[[int], object], block: range, reads: list[BinaryIO], write_end: int) -> None:
    """In a worker: pickle ``_run_block(work, block)`` to the pipe and exit
    0, or exit 1 if that fails; never returns into the caller. The worker
    first closes every read end, so it dies of a broken pipe, not blocks
    forever, if the command's process dies first."""
    code = 1
    try:
        for src in reads:
            src.close()
        with open(write_end, "wb") as out:
            pickle.dump(_run_block(work, block), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def fuse_files(paths: Sequence[str], write: Callable[[list[Run], list[str], TextIO], object], out: str) -> int:
    """Write ``out`` whole (``corpus.replacing``) through ``write(runs,
    qids, fh)``, which writes the queries ``qids`` fused over ``runs`` to
    the text file ``fh``; returns the number of queries.

    Every file is cut at the same queries (``_shared_cuts``), into as many
    ranges as their total size needs (``_range_count``). Each range reads
    its slices, plus the files read whole, which each process reads once.
    It appends the queries of its slice of the first file, in their order,
    to its process's file: this process's is the replacement, each worker's
    a shard named after it, which are then appended. This process instead
    reads every file and writes the output whole if the first file is not
    cut, a range fails, a cut file's slice holds a query that its first-file
    slice lacks, a query is written by two ranges, or a file read whole
    holds a query that none writes."""
    with replacing(out) as temp:
        cpus = usable_cpus()
        cuts = _shared_cuts(paths, _range_count(sum(map(_size, paths)), cpus))
        blocks = _blocks(len(cuts[0]) - 1 if cuts[0] else 1, cpus)
        shards = [f"{temp}.{p}" for p in range(1, len(blocks))]
        # each process writes its block into one file, a range at a time
        files = [(path, "a" if s > block.start else "w") for path, block in zip([temp, *shards], blocks) for s in block]
        read_whole = functools.cache(read_run)  # each process fills its own
        whole: set[str] = set()

        def work(s: int) -> list[str] | None:
            runs = [read_whole(p) if c is None else read_run(p, c[s], c[s + 1]) for p, c in zip(paths, cuts)]
            own = runs[0].keys()
            if not all(run.keys() <= own for run, c in zip(runs[1:], cuts[1:]) if c is not None):
                return None
            if s == 0:
                whole.update(*(run.keys() for run, c in zip(runs, cuts) if c is None))
            qids = list(own)
            with open(*files[s], encoding="utf-8") as fh:
                write(runs, qids, fh)
            return qids

        try:
            if cuts[0]:
                parts = _in_workers(work, blocks)
                read_whole.cache_clear()
                written = [qid for part in parts if part is not None for qid in part]
                if None not in parts and len(set(written)) == len(written) and whole <= set(written):
                    with open(temp, "ab") as dst:
                        for shard in shards:
                            with open(shard, "rb") as src:
                                shutil.copyfileobj(src, dst)
                    return len(written)
            runs = [read_run(path) for path in paths]
            qids = list(dict.fromkeys(qid for run in runs for qid in run))
            with open(temp, "w", encoding="utf-8") as fh:
                write(runs, qids, fh)
            return len(qids)
        finally:
            for shard in shards:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(shard)


def _shared_cuts(paths: Sequence[str], n: int) -> list[list[int] | None]:
    """Per file, the byte offsets ``0, ..., size`` that cut it at the same
    queries as every other, or None for a file to read whole.

    The reference is the smallest file that ``_query_cuts`` cuts into the
    most ranges, up to ``n``; the queries at its inner cuts are the
    boundaries. In each file, a boundary falls at the first line after the
    boundary before it that starts with its query id (``_first_line``). A
    file that lacks a boundary there is read whole."""
    ranges = {path: _query_cuts(path, n) for path in paths}
    reference = max(sorted(ranges, key=_size), key=lambda path: len(ranges[path]))
    if len(ranges[reference]) < 3:
        return [None] * len(paths)
    qids = []
    with open(reference, "rb") as fh:
        for cut in ranges[reference][1:-1]:
            fh.seek(cut)
            qids.append(fh.readline().split(None, 1)[0])
    return [_cuts_at(path, qids) for path in paths]


def _cuts_at(path: str, qids: list[bytes]) -> list[int] | None:
    """``0``, the first line of each query in ``qids`` after the one before
    it and the size of the file, or None unless each is found and none at
    the line of the one before. One pass over the file finds them all."""
    bounds: list[int] = []
    try:
        with open(path, "rb") as fh:
            for qid in qids:
                bounds.append(_first_line(fh, qid, bounds[-1] if bounds else 0))
                if bounds[-1] < 0:
                    return None
            size = fh.seek(0, os.SEEK_END)
    except OSError:
        return None
    return [0, *bounds, size] if len(set(bounds)) == len(bounds) else None


def _first_line(fh: BinaryIO, qid: bytes, at: int) -> int:
    """The offset of the first line of ``fh``, from the line start ``at``
    on, that starts with ``qid`` and a space or tab, or -1 if none does.
    Reads forward ``_BLOCK`` bytes at a time and holds no more."""
    line = re.compile(b"\n" + re.escape(qid) + b"[ \t]")
    fh.seek(at)
    tail = b"\n"  # the bytes before ``at``, for a line start across two blocks
    while block := fh.read(_BLOCK):
        data = tail + block
        if found := line.search(data):
            return at - len(tail) + found.start() + 1
        tail = data[-len(qid) - 1 :]
        at += len(block)
    return -1


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def evaluate_file(path: str, qrels: Qrels) -> dict:
    """``evaluate_run(read_run(path), qrels)``, with the file cut into byte
    ranges that start where a query starts (``_query_cuts``), as many as its
    size needs (``_range_count``); each range sends back only
    ``score_queries`` of its queries. If a range fails, or a query id turns
    up in two ranges (its lines are not contiguous), the whole file is read
    and scored here instead, so the errors are ``read_run``'s own."""
    cpus = usable_cpus()
    cuts = _query_cuts(path, _range_count(_size(path), cpus))
    if len(cuts) > 2:
        parts = _in_workers(
            lambda s: score_queries(read_run(path, cuts[s], cuts[s + 1]), qrels), _blocks(len(cuts) - 1, cpus)
        )
        per_sample: dict[str, dict] = {}
        for part in parts:
            if part is None or not per_sample.keys().isdisjoint(part):
                break
            per_sample.update(part)
        else:
            return run_report(per_sample, qrels)
    return evaluate_run(read_run(path), qrels)


def _query_cuts(path: str, n: int) -> list[int]:
    """Byte offsets ``0, ..., size`` that cut the file into up to ``n``
    ranges of near-equal size, each inner one where a query starts
    (``_next_query``); ``[0, size]`` if the file cannot be read."""
    size = _size(path)
    cuts = [0]
    if n > 1 and size:
        try:
            with open(path, "rb") as fh:
                for s in range(1, n):
                    cut = _next_query(fh, max(size * s // n, cuts[-1] + 1))
                    if cut >= size:
                        break
                    cuts.append(cut)
        except OSError:
            cuts = [0]
    return cuts + [size]


def _next_query(fh: BinaryIO, at: int) -> int:
    """Scanning from the first line start at or after ``at``, the start of
    the first line after it whose first token (the query id) differs from
    the non-blank line before it, or the end of the file. Blank lines stay
    with the query before them."""
    fh.seek(at - 1)
    fh.readline()  # the rest of the line holding byte at - 1
    previous = None
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return start
        tokens = line.split(None, 1)
        if tokens and previous is not None and tokens[0] != previous:
            return start
        previous = tokens[0] if tokens else previous

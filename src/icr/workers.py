"""Forked worker processes, which ``icr fuse`` and ``icr evaluate`` run on.

Both commands cut their run files into byte ranges that hold whole queries,
one range per usable CPU. ``_in_workers`` runs the first range in this
process and each other range in a forked worker, which sends back only a
small pickled result. When a range fails, or the ranges turn out not to
hold whole queries in the file's own order, this process does the whole
work itself, so the bytes written and the errors raised are those of a
single process. Every worker is reaped and every temporary file removed, on
success, on an error, on Ctrl-C and on SIGTERM. The workers run
``read_run``, ``fuse``, ``write_run`` and the metrics, none of which calls
BLAS, so numpy's BLAS threads are never used after a fork.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import shutil
import signal
from typing import BinaryIO, Callable, Sequence

from .corpus import Qrels, replacing
from .evaluation import evaluate_run, run_report, score_queries
from .ranking import Run, read_run


def usable_cpus() -> int:
    """How many processes share the work: the CPUs this process may run on,
    or one where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_workers(work: Callable[[int], object], n: int) -> list:
    """``[work(0), ..., work(n - 1)]``: ``work(0)`` runs here and each other
    ``work(s)`` in a forked worker, which pickles its result back through a
    pipe. A ``work`` that raised an Exception, or whose worker did not exit
    0, gives None. Leaving closes the read ends of the pipes, so a worker
    still sending dies of a broken pipe, then kills and reaps every worker
    not yet waited for."""
    pids: list[int] = []
    reads: list[BinaryIO] = []
    try:
        for s in range(1, n):
            read_end, write_end = os.pipe()
            reads.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send(work, s, reads, write_end)
            finally:
                os.close(write_end)
            pids.append(pid)
        try:
            results = [work(0)]
        except Exception:
            results = [None]
        for pid, src in zip(list(pids), reads):
            sent = src.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            results.append(pickle.loads(sent) if status == 0 else None)
        return results
    finally:
        for src in reads:
            src.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _send(work: Callable[[int], object], s: int, reads: list[BinaryIO], write_end: int) -> None:
    """In a worker: pickle ``work(s)`` to the pipe and exit 0, or exit 1 if
    it raises; never returns into the caller. The worker first closes every
    read end, so it dies of a broken pipe, not blocks forever, if the
    command's process dies first."""
    code = 1
    try:
        for src in reads:
            src.close()
        with open(write_end, "wb") as out:
            pickle.dump(work(s), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def fuse_files(paths: Sequence[str], write: Callable[[list[Run], list[str], str], object], out: str) -> int:
    """Write ``out`` whole (``corpus.replacing``) through ``write(runs,
    qids, path)``, which writes the queries ``qids`` fused over ``runs`` to
    ``path``; returns the number of queries.

    Every file is cut at the same queries (``_shared_cuts``) and each range
    reads its slices, plus the files read whole, in one process. It writes
    the queries of its slice of the first file, in their order: this process
    into the replacement, each worker into a shard named after it, which are
    then appended. This process instead reads every file and writes the
    output whole if the first file is not cut, a range fails, a cut file's
    slice holds a query that its first-file slice lacks, a query is written
    by two ranges, or a file read whole holds a query that none writes."""
    with replacing(out) as temp:
        cuts = _shared_cuts(paths, usable_cpus())
        n = len(cuts[0]) - 1 if cuts[0] else 1
        shards = [f"{temp}.{s}" for s in range(1, n)]
        whole: set[str] = set()

        def work(s: int) -> list[str] | None:
            runs = [read_run(p) if c is None else read_run(p, c[s], c[s + 1]) for p, c in zip(paths, cuts)]
            own = runs[0].keys()
            if not all(run.keys() <= own for run, c in zip(runs[1:], cuts[1:]) if c is not None):
                return None
            if s == 0:
                whole.update(*(run.keys() for run, c in zip(runs, cuts) if c is None))
            qids = list(own)
            write(runs, qids, shards[s - 1] if s else temp)
            return qids

        try:
            if shards:
                parts = _in_workers(work, n)
                written = [qid for part in parts if part is not None for qid in part]
                if None not in parts and len(set(written)) == len(written) and whole <= set(written):
                    with open(temp, "ab") as dst:
                        for shard in shards:
                            with open(shard, "rb") as src:
                                shutil.copyfileobj(src, dst)
                    return len(written)
            runs = [read_run(path) for path in paths]
            qids = list(dict.fromkeys(qid for run in runs for qid in run))
            write(runs, qids, temp)
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
    boundaries. In each file, a boundary falls at the first line that starts
    with its query id (``_first_line``). A file that lacks a boundary, or
    holds them out of order, is read whole."""
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
    """``0``, the first line of each query in ``qids`` and the size of the
    file, or None unless each is found after the one before."""
    try:
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            bounds = [_first_line(mm, qid) for qid in qids]
            size = len(mm)
    except (OSError, ValueError):  # ValueError: an empty file cannot be mapped
        return None
    return [0, *bounds, size] if min(bounds) >= 0 and bounds == sorted(set(bounds)) else None


def _first_line(mm: mmap.mmap, qid: bytes) -> int:
    """The offset of the first line of ``mm`` that starts with ``qid`` and a
    space or tab, or -1 if none does."""
    if mm[: len(qid) + 1] in (qid + b" ", qid + b"\t"):
        return 0
    space = mm.find(b"\n" + qid + b" ")
    # a tab line counts only before the first space line
    tab = mm.find(b"\n" + qid + b"\t", 0, len(mm) if space < 0 else space + len(qid) + 2)
    found = [at + 1 for at in (space, tab) if at >= 0]
    return min(found, default=-1)


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def evaluate_file(path: str, qrels: Qrels) -> dict:
    """``evaluate_run(read_run(path), qrels)``, with the file cut into byte
    ranges that start where a query starts (``_query_cuts``), one per usable
    CPU; each range sends back only ``score_queries`` of its queries. If a
    range fails, or a query id turns up in two ranges (its lines are not
    contiguous), the whole file is read and scored here instead, so the
    errors are ``read_run``'s own."""
    cuts = _query_cuts(path, usable_cpus())
    if len(cuts) > 2:
        parts = _in_workers(lambda s: score_queries(read_run(path, cuts[s], cuts[s + 1]), qrels), len(cuts) - 1)
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

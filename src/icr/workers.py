"""Forked worker processes, which ``icr fuse`` runs its two phases on and
``icr evaluate`` its one.

``read_runs`` reads run files, ``write_shards`` writes one output in query
shards and ``evaluate_file`` scores one run file in query-aligned byte
ranges. Each splits its work between this process and forked workers, one
process per usable CPU. A worker's share counts only if the worker exits 0.
This process redoes a failed worker's share itself (``evaluate_file``: the
whole file), so the bytes written and the errors raised are those of a
single process. Every worker is reaped and every temporary file removed, on
success, on an error, on Ctrl-C and on SIGTERM. The workers run
``read_run``, ``fuse``, ``write_run`` and the metrics, none of which calls
BLAS, so numpy's BLAS threads are never used after a fork.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import signal
from typing import BinaryIO, Callable, Sequence

from .corpus import Qrels, replacing
from .errors import DataError
from .evaluation import evaluate_run, run_report, score_queries
from .ranking import Run, read_run

def usable_cpus() -> int:
    """How many processes share the work: the CPUs this process may run on,
    or one where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Workers:
    """Forked children. Leaving the block closes the read ends of their
    pipes, so a child still sending dies of a broken pipe, then kills and
    reaps every child not yet waited for."""

    def __init__(self) -> None:
        self._pids: list[int] = []
        self._reads: list[BinaryIO] = []

    def __enter__(self) -> _Workers:
        return self

    def __exit__(self, *exc) -> None:
        for src in self._reads:
            src.close()
        for pid in self._pids:
            os.kill(pid, signal.SIGKILL)
        for pid in self._pids:
            os.waitpid(pid, 0)
        self._pids.clear()

    def fork(self, work: Callable[[], object]) -> int:
        """Run ``work`` in a child, which exits 0 if it returns and 1 if it
        raises; the child never returns into the caller."""
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                work()
                code = 0
            finally:
                os._exit(code)
        self._pids.append(pid)
        return pid

    def fork_sender(self, send: Callable[[BinaryIO], object]) -> tuple[int, BinaryIO]:
        """Run ``send`` in a child on the write end of a new pipe; returns
        the child's pid and the read end. The child first closes every read
        end, so it also dies of a broken pipe, not blocks forever, if this
        process dies first."""
        read_end, write_end = os.pipe()
        self._reads.append(open(read_end, "rb"))

        def work() -> None:
            for src in self._reads:
                src.close()
            with open(write_end, "wb") as out:
                send(out)

        try:
            return self.fork(work), self._reads[-1]
        finally:
            os.close(write_end)

    def succeeded(self, pid: int) -> bool:
        """Wait for a child: did it exit 0?"""
        status = os.waitpid(pid, 0)[1]
        self._pids.remove(pid)
        return status == 0


def read_runs(paths: Sequence[str]) -> list[Run]:
    """``[read_run(p) for p in paths]``, with the files split by size
    between this process and the workers. Each worker streams its Runs back
    through a pipe (``Run.dump``). A file that a worker failed to send, or
    that this process failed to read, is read again here in path order, so
    the first bad file raises ``read_run``'s own error."""
    shares = _shares_by_size(paths, usable_cpus())
    runs: list[Run | None] = [None] * len(paths)
    with _Workers() as workers:
        pipes = [
            (*workers.fork_sender(lambda out, share=share: _send_runs(paths, share, out)), share)
            for share in shares[1:]
        ]
        for i in shares[0]:
            try:
                runs[i] = read_run(paths[i])
            except Exception:
                # any error: the pass below raises it again unless a file
                # before this one fails first, as one process would
                break
        for pid, src, share in pipes:
            try:
                received = [Run.load(src) for _ in share]
            except EOFError:
                received = []
            if workers.succeeded(pid):
                for i, run in zip(share, received):
                    runs[i] = run
    return [read_run(path) if run is None else run for run, path in zip(runs, paths)]


def _shares_by_size(paths: Sequence[str], n: int) -> list[list[int]]:
    """Indexes of ``paths`` in up to ``n`` non-empty shares of near-equal
    total size, each in path order: each file, largest first, joins the
    smallest share."""
    sizes = [_size(path) for path in paths]
    shares: list[list[int]] = [[] for _ in range(max(1, min(n, len(paths))))]
    totals = [0] * len(shares)
    for i in sorted(range(len(paths)), key=lambda i: -sizes[i]):
        smallest = min(range(len(shares)), key=lambda s: (totals[s], len(shares[s])))
        shares[smallest].append(i)
        totals[smallest] += sizes[i]
    return [sorted(share) for share in shares if share]


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _send_runs(paths: Sequence[str], share: list[int], out: BinaryIO) -> None:
    # read every file before sending any, so a full pipe does not hold up
    # the reading while this process is still reading its own share
    runs = [read_run(paths[i]) for i in share]
    for run in runs:
        run.dump(out)


def write_shards(items: Sequence, write: Callable[[Sequence, str], object], out: str) -> None:
    """``write(items, out)``, with ``items`` cut into contiguous shards, one
    per usable CPU, and ``out`` replaced whole (``corpus.replacing``). This
    process writes the first shard into the replacement; each worker writes
    its shard into a file named after it, which is then appended. If a
    worker fails, this process writes the replacement whole itself."""
    n = max(1, min(usable_cpus(), len(items)))
    bounds = [len(items) * s // n for s in range(n + 1)]
    with replacing(out) as temp:
        shards = [f"{temp}.{s}" for s in range(1, n)]
        try:
            with _Workers() as workers:
                pids = [
                    workers.fork(lambda shard=items[bounds[s] : bounds[s + 1]], path=shards[s - 1]: write(shard, path))
                    for s in range(1, n)
                ]
                write(items[: bounds[1]], temp)
                whole = all([workers.succeeded(pid) for pid in pids])
            if not whole:
                write(items, temp)
            elif pids:
                with open(temp, "ab") as dst:
                    for shard in shards:
                        with open(shard, "rb") as src:
                            shutil.copyfileobj(src, dst)
        finally:
            for shard in shards:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(shard)


def evaluate_file(path: str, qrels: Qrels) -> dict:
    """``evaluate_run(read_run(path), qrels)``, with the file cut into byte
    ranges that start where a query starts (``_query_cuts``), one per usable
    CPU. This process scores the first range and each worker another; a
    worker sends back only ``score_queries`` of its range (pickled). If a
    range fails, or a query id turns up in two ranges (its lines are not
    contiguous), the whole file is read and scored here instead, so the
    errors are ``read_run``'s own."""
    cuts = _query_cuts(path, usable_cpus())
    ranges = list(zip(cuts, cuts[1:]))
    per_sample: dict[str, dict] | None = None
    if len(ranges) > 1:
        with _Workers() as workers:
            pipes = [workers.fork_sender(lambda out, r=r: _send_scores(path, *r, qrels, out)) for r in ranges[1:]]
            try:
                per_sample = score_queries(read_run(path, *ranges[0]), qrels)
            except (DataError, OSError):
                pipes = []  # the whole file is read below, which raises the error one process would
            for pid, src in pipes:
                sent = src.read()
                part = pickle.loads(sent) if workers.succeeded(pid) else None
                if part is None or not per_sample.keys().isdisjoint(part):
                    per_sample = None
                    break
                per_sample.update(part)
    if per_sample is None:
        return evaluate_run(read_run(path), qrels)
    return run_report(per_sample, qrels)


def _send_scores(path: str, start: int, stop: int, qrels: Qrels, out: BinaryIO) -> None:
    out.write(pickle.dumps(score_queries(read_run(path, start, stop), qrels), pickle.HIGHEST_PROTOCOL))


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

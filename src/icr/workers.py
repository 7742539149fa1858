"""Forked worker processes, which ``icr fuse`` runs its two phases on.

``read_runs`` reads run files and ``write_shards`` writes one output in
query shards. Each splits its work between this process and forked workers,
one process per usable CPU. A worker reports only success or failure, by its
exit code. This process redoes a failed worker's share itself, so the bytes
written and the errors raised are those of a single process. Every worker
is reaped and every temporary file removed, on success, on an error, on
Ctrl-C and on SIGTERM. The workers run ``read_run``, ``fuse`` and
``write_run``, none of which calls BLAS, so numpy's BLAS threads are never
used after a fork.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
from typing import BinaryIO, Callable, Sequence

from .corpus import replacing
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
    """Forked children. Leaving the block kills and reaps every child not
    yet waited for."""

    def __init__(self) -> None:
        self._pids: list[int] = []

    def __enter__(self) -> _Workers:
        return self

    def __exit__(self, *exc) -> None:
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
    # leaving the block closes the pipes before the workers are reaped, so
    # a worker still sending dies of a broken pipe
    with _Workers() as workers, contextlib.ExitStack() as pipes_open:
        pipes: list[tuple[int, BinaryIO, list[int]]] = []
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            src = pipes_open.enter_context(open(read_end, "rb"))
            # the child closes every read end, so it also dies of a broken
            # pipe, not blocks forever, if this process dies first
            read_ends = [read_end] + [other.fileno() for _, other, _ in pipes]
            try:
                pid = workers.fork(
                    lambda share=share, fd=write_end, close=read_ends: _send_runs(paths, share, fd, close)
                )
            finally:
                os.close(write_end)
            pipes.append((pid, src, share))
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


def _send_runs(paths: Sequence[str], share: list[int], fd: int, close: list[int]) -> None:
    for read_end in close:
        os.close(read_end)
    # read every file before sending any, so a full pipe does not hold up
    # the reading while this process is still reading its own share
    runs = [read_run(paths[i]) for i in share]
    with open(fd, "wb") as out:
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

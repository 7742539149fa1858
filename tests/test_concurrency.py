"""Sample-level concurrency: outputs, order, width and failure stops.

``SlowClient`` answers by rule and sleeps on every call. The first calls of
the first ``width`` samples wait for each other on a barrier, so those
calls provably overlap. Given each sample's call count (from a serial
run), it holds the first sample's last call until every other sample has
made its last call, so later samples provably finish first. Every sample's
query carries a tag ``x<i>`` that the rules keep, so each call can be
traced back to its sample.
"""

from __future__ import annotations

import re
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from icr.corpus import CQRSample
from icr.crdg import CrdgConfig, build_crdg_dataset, load_trajectories
from icr.evaluation import Indexes
from icr.genclient import ScriptedMock, run_in_order
from icr.pipeline import InferenceConfig, emit_per_query_runs, emit_run, run_batch
from icr.prefdata import build_pref_dataset

from .conftest import TIER_TOKENS

N_SAMPLES = 8
CONFIG = CrdgConfig(early_stop=1, max_iters=10, resample_budget=1)


def _sample_index(fingerprint: str) -> int:
    return int(re.search(r"\bx(\d+)\b", fingerprint).group(1))


def _extend(query: str) -> str:
    """One more tier token, up to five; a five-token query is echoed."""
    tag, *tokens = query.split()
    return " ".join([tag, *TIER_TOKENS[: min(len(tokens) + 1, 5)]])


def answer(kind: str, fingerprint: str, attempt: int) -> str:
    if kind == "clarify":
        return f"which detail {attempt}?"
    if kind == "rewrite":
        query = fingerprint.split("\n")[0]
        return _extend(query) if attempt == 0 else query
    query = fingerprint.rsplit("Q: ", 1)[1]
    segments = []
    for n in range(3):
        query = _extend(query)
        segments.append(f"[Clarification] which {n}? [Rewrite] {query}")
    return " ".join(segments)


class Tracker:
    """When each call starts, which calls overlap, and the order they end."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.starts: list[tuple[float, int]] = []
        self.finished: list[int] = []

    @contextmanager
    def call(self, sample: int):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.starts.append((time.monotonic(), sample))
            number = sum(1 for _, s in self.starts if s == sample)
        try:
            yield number
        finally:
            with self._lock:
                self.active -= 1
                self.finished.append(sample)

    def calls(self) -> Counter:
        """Calls made per sample."""
        return Counter(s for _, s in self.starts)


class SlowClient:
    def __init__(self, width: int = 4, delays: dict[int, float] | None = None, fail: tuple[int, int] | None = None,
                 calls: Counter | None = None):
        self.max_in_flight = width
        self.delays = delays or {}
        self.fail = fail  # (sample, call number) that raises
        self.failed_at: float | None = None
        self.tracker = Tracker()
        self.first_wave = threading.Barrier(width, timeout=10)
        self.calls = calls
        self._unfinished = set(calls) - {0} if calls else set()  # samples yet to end their last call
        self._rest_finished = threading.Event()
        self._lock = threading.Lock()

    def generate(self, kind, fingerprint, prompt, attempt=0):
        sample = _sample_index(fingerprint)
        with self.tracker.call(sample) as number:
            if number == 1 and sample < self.max_in_flight:
                self.first_wave.wait()
            if self.calls and sample == 0 and number == self.calls[0]:
                self._rest_finished.wait(10)
            time.sleep(self.delays.get(sample, 0.001))
            if self.fail == (sample, number):
                self.failed_at = time.monotonic()
                raise RuntimeError("generator crashed")
            out = answer(kind, fingerprint, attempt)
        if self.calls and sample != 0 and number == self.calls[sample]:
            with self._lock:
                self._unfinished.discard(sample)
                if not self._unfinished:
                    self._rest_finished.set()
        return out


class TrackedMock(ScriptedMock):
    """A scripted mock that records the overlap of its calls."""

    def __init__(self, script):
        super().__init__(script)
        self.tracker = Tracker()

    def generate(self, kind, fingerprint, prompt, attempt=0):
        with self.tracker.call(_sample_index(fingerprint)):
            time.sleep(0.001)
            return super().generate(kind, fingerprint, prompt, attempt)


class Recording:
    """Width-1 client that keeps every answer, to script a mock with."""

    max_in_flight = 1

    def __init__(self):
        self.script = {}

    def generate(self, kind, fingerprint, prompt, attempt=0):
        out = answer(kind, fingerprint, attempt)
        self.script[(kind, fingerprint, attempt)] = out
        return out


@pytest.fixture()
def samples():
    return [
        CQRSample(f"q{i}", [], f"x{i} " + " ".join(TIER_TOKENS[: 1 + i % 3]), {"gold"})
        for i in range(N_SAMPLES)
    ]


@pytest.fixture()
def indexes(tier_sparse, tier_dense, tier_provider):
    return Indexes(tier_sparse, tier_dense, tier_provider)


def _crdg(tmp_path, name, samples, client, indexes) -> bytes:
    out = tmp_path / name
    build_crdg_dataset(samples, client, indexes, CONFIG, str(out))
    return out.read_bytes()


def _prefdata(tmp_path, name, samples, client, indexes, dcr, multi_ot) -> bytes:
    out = tmp_path / name
    build_pref_dataset(
        load_trajectories(str(dcr)), samples, client, indexes, CONFIG, str(out), seed=5, multi_ot=multi_ot
    )
    return out.read_bytes()


def _infer(tmp_path, name, samples, client, indexes, step_wise) -> bytes:
    config = InferenceConfig(retriever="both-report", step_wise=step_wise)
    results = run_batch(samples, client, config, indexes)
    data = b""
    for retriever, batch in results.items():
        assert [r.sample_id for r in batch] == [s.sample_id for s in samples]
        path = tmp_path / f"{name}.{retriever}"
        emit_run(batch, str(path))
        data += path.read_bytes()
        for p in emit_per_query_runs(batch, str(tmp_path / f"{name}.{retriever}.iters")):
            data += Path(p).read_bytes()
    return data


def _assert_overlapped(client):
    assert client.tracker.peak == 4
    # the first sample's slow calls end last, yet its output comes first
    assert client.tracker.finished[-1] == 0


def test_crdg_output_is_byte_identical_at_width_four(tmp_path, samples, indexes):
    reference = SlowClient(width=1)
    serial = _crdg(tmp_path, "serial.jsonl", samples, reference, indexes)
    client = SlowClient(calls=reference.tracker.calls())
    concurrent = _crdg(tmp_path, "concurrent.jsonl", samples, client, indexes)
    assert concurrent == serial
    _assert_overlapped(client)
    lines = concurrent.decode().splitlines()
    assert [line.split('"', 4)[3] for line in lines] == [s.sample_id for s in samples]
    assert b'"steps":[]' not in concurrent  # every sample accepted a step


@pytest.mark.parametrize("multi_ot", [False, True])
def test_prefdata_output_is_byte_identical_at_width_four(tmp_path, samples, indexes, multi_ot):
    dcr = tmp_path / "dcr.jsonl"
    build_crdg_dataset(samples, SlowClient(width=1), indexes, CONFIG, str(dcr))
    reference = SlowClient(width=1)
    serial = _prefdata(tmp_path, "serial.jsonl", samples, reference, indexes, dcr, multi_ot)
    client = SlowClient(calls=reference.tracker.calls())
    concurrent = _prefdata(tmp_path, "concurrent.jsonl", samples, client, indexes, dcr, multi_ot)
    assert concurrent == serial
    assert serial.count(b'"dimension":"ot"') == N_SAMPLES
    _assert_overlapped(client)


@pytest.mark.parametrize("step_wise", [False, True])
def test_infer_output_is_byte_identical_at_width_four(tmp_path, samples, indexes, step_wise):
    reference = SlowClient(width=1)
    serial = _infer(tmp_path, "serial", samples, reference, indexes, step_wise)
    client = SlowClient(calls=reference.tracker.calls())
    concurrent = _infer(tmp_path, "concurrent", samples, client, indexes, step_wise)
    assert concurrent == serial
    _assert_overlapped(client)


def test_scripted_mock_runs_one_call_at_a_time(tmp_path, samples, indexes):
    recording = Recording()
    expected = _crdg(tmp_path, "recorded.jsonl", samples, recording, indexes)
    mock = TrackedMock(recording.script)
    assert _crdg(tmp_path, "mock.jsonl", samples, mock, indexes) == expected
    assert mock.tracker.peak == 1
    assert [s for _, s in mock.tracker.starts] == sorted(s for _, s in mock.tracker.starts)


def test_worker_error_stops_every_generator_call(tmp_path, samples, indexes):
    # samples 0, 2 and 3 sleep 20 ms per call; sample 1 crashes on its third
    # call, about 10 ms in, while the others are mid-call
    client = SlowClient(delays={0: 0.02, 1: 0.005, 2: 0.02, 3: 0.02}, fail=(1, 3))
    out = tmp_path / "dcr.jsonl"
    with pytest.raises(RuntimeError, match="generator crashed"):
        build_crdg_dataset(samples, client, indexes, CONFIG, str(out))
    assert client.failed_at is not None
    assert [s for t, s in client.tracker.starts if t > client.failed_at] == []
    assert {s for _, s in client.tracker.starts} == {0, 1, 2, 3}
    assert out.read_bytes() == b""


def test_leaving_early_stops_every_generator_call(samples):
    client = SlowClient()

    def work(client, sample):
        return [client.generate("clarify", sample.query, "", attempt) for attempt in range(5)]

    results = run_in_order(client, work, samples)
    assert next(results) == [answer("clarify", samples[0].query, a) for a in range(5)]
    results.close()
    left = time.monotonic()
    time.sleep(0.01)
    assert [s for t, s in client.tracker.starts if t > left] == []
    assert len(client.tracker.starts) < 5 * N_SAMPLES


def test_order_holds_under_frequent_thread_switches():
    # more workers than cores, switching threads every few bytecodes
    client = SlowClient(width=8, delays=dict.fromkeys(range(300), 0.0))
    queries = [f"x{i} amber" for i in range(300)]

    def work(client, query):
        return [client.generate("rewrite", f"{query}\nwhich?", "", attempt) for attempt in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = list(run_in_order(client, work, queries))
    finally:
        sys.setswitchinterval(interval)
    assert results == [[answer("rewrite", f"{q}\nwhich?", a) for a in range(3)] for q in queries]
    assert len(client.tracker.starts) == 900
    assert client.tracker.active == 0
    assert client.tracker.peak <= 8


def test_lookahead_is_bounded_while_the_head_item_is_slow():
    # width 2: four items are taken ahead, and no more while item 0 hangs
    release = threading.Event()
    drawn = []

    def items():
        for i in range(20):
            drawn.append(i)
            yield i

    class Wide:
        max_in_flight = 2

    def work(client, i):
        if i == 0:
            release.wait(5)
        return i

    results = run_in_order(Wide(), work, items())
    timer = threading.Timer(0.05, release.set)
    timer.start()
    assert next(results) == 0
    assert drawn == [0, 1, 2, 3, 4]
    assert list(results) == list(range(1, 20))
    timer.join()


def test_the_first_worker_error_is_raised():
    # item 1 fails first; item 0, read first, fails later with its own error
    class Wide:
        max_in_flight = 2

    def work(client, i):
        if i == 1:
            raise KeyError("first")
        time.sleep(0.05)
        raise ValueError("later")

    with pytest.raises(KeyError, match="first"):
        list(run_in_order(Wide(), work, [0, 1]))

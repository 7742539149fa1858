"""Runs the ``icr`` CLI stages of one benchmark run and times them.

Usage: python3 worker.py SPEC.json

The spec names the source tree to import ``icr`` from, the set-up stages
(run ``setup_repeats`` times), the timed stages (run in whole rounds until
``seconds`` have passed) and untimed ``verify`` stages run afterwards. Each
stage run is a fresh process (stage.py), as a CLI user would start it, and
its wall time includes interpreter start and imports. After each stage run,
outside the timed region, the worker hashes the stage's output and counts
its records and failed records. The result JSON holds, for every stage run,
the wall time, exit code, output digest and record counts; the peak RSS of
the largest stage process; the generator calls the scripted mock answered
(per stage and fingerprint) and, with ``trace``, the per-layer summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def _clear(paths: list[str]) -> None:
    for p in paths:
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)


def digest(paths: list[str]) -> str:
    """SHA-256 over files, a directory standing for its files in name order.
    A missing path hashes as its name alone."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode() + b"\0")
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))] if os.path.isdir(path) else [path]
        for f in files:
            if os.path.exists(f):
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def count_records(path: str) -> tuple[int, int]:
    """(records, failed records) of a JSONL output. A record fails with an
    ``error`` field or a ``provider_failure`` stop."""
    n = failed = 0
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    r = json.loads(line)
                    n += 1
                    failed += "error" in r or r.get("stop_reason") == "provider_failure"
    return n, failed


class Totals:
    """Spans and counters summed over the stage processes of one phase."""

    def __init__(self) -> None:
        from tracer import Stat

        self.stats = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, stats: dict) -> None:
        for key, (calls, total, self_s, durations) in stats.get("spans", {}).items():
            st = self.stats[key]
            st.calls += calls
            st.total += total
            st.self += self_s
            st.durations.extend(durations)
        for key, value in stats.get("counts", {}).items():
            self.counts[key] += value


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    env = dict(os.environ, **spec.get("env", {}))
    work = os.path.dirname(os.path.abspath(spec["out"]))
    stats_path = os.path.join(work, "stage-stats.json")
    trace = "1" if spec["trace"] else "0"
    calls: dict[str, Counter] = defaultdict(Counter)
    errors: list[str] = []
    totals = None

    def run_stage(stage: dict, stage_env: dict) -> dict:
        # Outputs are removed before each run, outside the timed region: on
        # ext4, truncating a file whose last write is still being flushed
        # waits for that flush, which would time the disk, not the program.
        _clear(stage.get("clear", []))
        if os.path.exists(stats_path):
            os.remove(stats_path)
        cmd = [sys.executable, os.path.join(HERE, "stage.py"), spec["src"], stats_path, stage["name"], trace, *stage["argv"]]
        with open(os.path.join(work, "stages.log"), "ab") as log:
            t0 = time.perf_counter()
            rc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=log, env=stage_env).returncode
            dt = time.perf_counter() - t0
        if rc != 0:
            errors.append(f"{stage['name']}: exit code {rc}")
        if os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as fh:
                stats = json.load(fh)
            calls[stage["name"]].update(stats["mock_calls"])
            if totals is not None:
                totals.add(stats)
        records, failed = count_records(stage["out"]) if stage.get("records") else (0, 0)
        return {"seconds": dt, "rc": rc, "digest": digest(stage["hashed"]), "records": records, "failed": failed}

    if spec["trace"]:
        totals = Totals()
    setup_runs = []
    for _ in range(spec["setup_repeats"]):
        setup_runs.append({s["name"]: run_stage(s, env) for s in spec["setup"]})
    setup_totals = totals
    if spec["trace"]:
        totals = Totals()

    rounds = []
    stub_marks = []
    start = time.perf_counter()
    while True:
        record = {}
        for stage in spec["stages"]:
            record[stage["name"]] = [run_stage(stage, env) for _ in range(stage.get("reps", 1))]
            if spec.get("stub_log"):
                stub_marks.append([stage["name"], os.path.getsize(spec["stub_log"])])
        rounds.append(record)
        if time.perf_counter() - start >= spec["seconds"]:
            break

    result = {
        "setup": setup_runs,
        "rounds": rounds,
        "stub_marks": stub_marks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "mock_calls": {name: dict(c) for name, c in calls.items()},
    }
    if spec["trace"]:
        from tracer import summarise

        result["trace"] = summarise(
            setup_totals.stats, totals.stats, totals.counts, spec["setup_repeats"], len(rounds), spec.get("delay_ms", 0.0)
        )
    totals = None
    local_env = {k: v for k, v in env.items() if k != "ICR_GEN_URL"}
    result["verify"] = {s["name"]: run_stage(s, local_env) for s in spec.get("verify", [])}
    result["errors"] = errors
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

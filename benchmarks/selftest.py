"""Self-test of the benchmark's output checks.

Usage (from the root of a source checkout): python3 benchmarks/selftest.py

Runs each workload once at a small scale and requires that the checks pass
on the program's real outputs, then makes one small corruption at a time
(a swapped rank, an altered F, an altered metric, a changed byte) and
requires that the output checks catch each, and separately that the check
of every round's output digest does. Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

SMALL = {
    "chain-local": {"passages": 1500, "eval_queries": 100, "reps": {}},
    "chain-remote": {"passages": 1500, "delay_ms": 0.0, "eval_queries": 100, "reps": {}},
    "eval-scale": {"passages": 1500, "eval_queries": 300, "reps": {}},
}


def swap_first_two(path: str, qid: str | None = None) -> None:
    """Swap the docids at ranks 1 and 2 of one query in a TREC run."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    qid = qid or lines[0].split()[0]
    at = [i for i, line in enumerate(lines) if line.split()[0] == qid][:2]
    a, b = (lines[i].split() for i in at)
    a[2], b[2] = b[2], a[2]
    lines[at[0]], lines[at[1]] = " ".join(a), " ".join(b)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def alter_f(path: str) -> None:
    """Raise the F of the last accepted step of the first non-empty record."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    rec = next(r for r in records if r["steps"])
    rec["steps"][-1]["f"]["f"] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def alter_report(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    qid = sorted(report["per_sample"])[0]
    report["per_sample"][qid]["ndcg3"] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def flip_byte(path: str) -> None:
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    failures = []
    for workload, scale in SMALL.items():
        work = os.path.join(os.getcwd(), ".bench_work", f"selftest-{workload}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            result = bench.execute(workload, 7, 0.0, False, work, src, scale)
            paths = result["plan"]["paths"]
            clean = bench.verify(result)
            if clean:
                failures.append(f"{workload}: checks fail on the program's own outputs: {clean[:3]}")
                continue
            cases = [
                ("swapped rank in the fused run", paths["fused.trec"], swap_first_two),
                ("altered per-sample metric", paths["report.json"], alter_report),
            ]
            if workload == "chain-local":
                cases += [
                    ("altered F in a trajectory", paths["dcr.jsonl"], alter_f),
                    ("swapped rank in a per-iteration run", paths["iter_paths"][0], swap_first_two),
                ]
            if workload == "chain-remote":
                cases.append(("changed byte in the mock-script output", paths["dcr.jsonl"] + ".mock", flip_byte))
            # the output checks on their own, then the check that every
            # run of a stage wrote the output they checked
            for name, path, corrupt in cases:
                shutil.copyfile(path, path + ".orig")
                corrupt(path)
                for check in (bench.check_outputs, bench.check_repeats):
                    caught = check(result)
                    label = f"{name} ({check.__name__})"
                    print(f"{workload}: {label}: {'caught' if caught else 'MISSED'}")
                    if not caught:
                        failures.append(f"{workload}: {label} was not caught")
                os.replace(path + ".orig", path)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

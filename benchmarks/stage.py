"""One ``icr`` CLI invocation in a fresh process, as a user would run it.

Usage: python3 stage.py SRC STATS_OUT NAME TRACE ICR_ARGS...

Imports ``icr`` from SRC, runs ``cli.main(ICR_ARGS)`` and exits with its
code. The scripted mock's answers are counted per fingerprint (one
dictionary update per call), and with TRACE=1 every traced layer records
spans (see tracer.py). The counts and spans go to STATS_OUT as JSON.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter


def main() -> int:
    src, stats_out, name, trace = sys.argv[1:5]
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from icr import cli
    from icr.genclient import ScriptedMock

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_stage(name)

    calls: Counter = Counter()
    generate = ScriptedMock.generate

    def counted_generate(self, kind, fingerprint, prompt, attempt=0):
        calls[fingerprint] += 1
        return generate(self, kind, fingerprint, prompt, attempt)

    ScriptedMock.generate = counted_generate
    rc = cli.main(argv)
    stats = {"mock_calls": dict(calls)}
    if tracer is not None:
        tracer.enabled = False
        stats["spans"] = {k: [s.calls, s.total, s.self, s.durations] for k, s in tracer.stats.items()}
        stats["counts"] = dict(tracer.counts)
    with open(stats_out, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Loopback chat-completion endpoint that answers from a generator script.

Usage: python3 stub.py --script SCRIPT.jsonl --delay-ms MS --log LOG --port-file FILE

It rebuilds (kind, fingerprint, attempt) from the prompt and the payload's
``seed`` (absent on attempt 0), answers with the script's response after a
fixed delay, and appends ``kind<TAB>attempt<TAB>fingerprint`` (JSON-quoted)
to the log before answering. It listens on 127.0.0.1 on a free port, which
it writes to the port file once it is ready, and serves until terminated.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

CLARIFY_HEAD = "Given a query, this query may be ambiguous."
REWRITE_HEAD = "Given a conversation and a clarification question,"


def request_key(prompt: str, seed: int) -> tuple[str, str, int]:
    """(kind, fingerprint, attempt) of a generator request."""
    if prompt.startswith(CLARIFY_HEAD):
        query = prompt[prompt.rindex("#Query#: ") + len("#Query#: ") : prompt.rindex("\n#Clarification Question#:")]
        return "clarify", query, seed
    if prompt.startswith(REWRITE_HEAD):
        clar_at = prompt.rindex("#Clarification Question#:\n") + len("#Clarification Question#:\n")
        conv_at = prompt.index("\n#Conversation#:\n", clar_at)
        clarification = prompt[clar_at:conv_at]
        conversation = prompt[conv_at + len("\n#Conversation#:\n") : prompt.rindex("\n#Rewritten Query#:")]
        query = conversation.rsplit("\n", 1)[-1][len("Q: ") :]
        return "rewrite", f"{query}\n{clarification}", seed
    return "trajectory", prompt, seed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--script", required=True)
    ap.add_argument("--delay-ms", type=float, required=True)
    ap.add_argument("--log", required=True)
    ap.add_argument("--port-file", required=True)
    args = ap.parse_args()

    script = {}
    with open(args.script, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                o = json.loads(line)
                script[(o["kind"], o["fingerprint"], int(o.get("attempt", 0)))] = o["response"]
    delay = args.delay_ms / 1000.0
    log = open(args.log, "a", encoding="utf-8")
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # one segment per response and no Nagle delay, so a keep-alive
        # client never waits on a delayed ACK
        wbufsize = 1 << 16
        disable_nagle_algorithm = True

        def do_POST(self):  # noqa: N802 (http.server naming)
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            key = request_key(body["messages"][-1]["content"], int(body.get("seed", 0)))
            with lock:
                log.write(f"{key[0]}\t{key[2]}\t{json.dumps(key[1])}\n")
                log.flush()
            time.sleep(delay)
            response = script.get(key)
            if response is None:
                payload, status = {"error": f"no scripted response for {key[0]} attempt {key[2]}"}, 404
            else:
                payload, status = {"choices": [{"message": {"role": "assistant", "content": response}}]}, 200
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):  # keep stderr quiet
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    tmp = args.port_file + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        log.close()


if __name__ == "__main__":
    main()

"""Stub chat-completion server for the evolve-http workload.

Runs as its own process so that its CPU time never competes with the
measured process for the interpreter lock. Every request is served on its
own thread after a fixed injected latency (a sleep), so concurrent clients
overlap their waits.

Replies are scripted from a JSON file written by the benchmark at set-up:

* proposal requests get `n` choices holding, in a fixed order, a filler edit
  that leaves the plan length unchanged, the target edit for the prompt's
  step target, duplicates of both, a domain that does not link against the
  scenario and a malformed block;
* comparison requests get the same letter in every choice, picked from a
  hash of the prompt, so a question always gets the same answer and the
  number of comparisons a ranking takes does not depend on the seed.

A seeded small share of chat requests is answered with HTTP 503 instead. An
answered 503 is never followed by another, so a client that retries once
always gets through. `GET /count` returns how many chat requests arrived,
so the benchmark can compare it with the client's own transport count.

Usage: python3 perfbench/stub_server.py --seed N --latency-ms MS
           --error-share F --script replies.json
Prints `PORT <port>` once it listens and exits when its stdin closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_TARGET = re.compile(r"in at most (\d+) steps")


def _fence(text: str) -> str:
    return f"```pddl\n{text.rstrip()}\n```"


class Script:
    """Turns one chat request into its deterministic reply contents."""

    def __init__(self, replies: dict):
        self.fillers = replies["fillers"]
        self.targets = {int(k): v for k, v in replies["targets"].items()}
        self.unlinkable = replies["unlinkable"]
        self.malformed = replies["malformed"]

    def _target(self, prompt: str) -> str:
        match = _TARGET.search(prompt)
        return self.targets[int(match.group(1))]

    def contents(self, user: str, n: int) -> list:
        if user.rstrip().endswith("Reply with the single letter A or B."):
            digest = hashlib.sha256(user.encode()).digest()
            return ["A" if digest[0] & 1 else "B"] * n
        target = self._target(user)
        pool = [
            f"One option keeps the moves and adds an alias.\n\n{_fence(self.fillers[0])}\n",
            f"This extension shortens the plan.\n\n{_fence(target)}\n",
            f"Again the alias:\n{_fence(self.fillers[0])}\nand the shortcut:\n{_fence(target)}\n",
            f"A renamed domain.\n\n{_fence(self.unlinkable)}\n",
            f"An unfinished attempt.\n\n{_fence(self.malformed)}\n",
            f"Another alias.\n\n{_fence(self.fillers[1])}\n",
            "No change seems necessary.",
        ]
        return [pool[i % len(pool)] for i in range(n)]


class StubState:
    def __init__(self, seed: int, error_share: float, script: Script):
        self.script = script
        self.period = round(1 / error_share) if error_share > 0 else 0
        self.offset = random.Random(seed).randrange(self.period) if self.period else 0
        self.requests = 0
        self.last_failed = False
        self.lock = threading.Lock()

    def admit(self) -> bool:
        """Count one chat request; False means answer it with a 503."""
        with self.lock:
            index = self.requests
            self.requests += 1
            fail = (
                self.period > 1
                and index % self.period == self.offset
                and not self.last_failed
            )
            self.last_failed = fail
            return not fail


def make_handler(state: StubState, latency_s: float):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, body: dict) -> None:
            payload = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):
            if self.path != "/count":
                self._send(404, {})
                return
            with state.lock:
                count = state.requests
            self._send(200, {"requests": count})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if not self.path.endswith("/chat/completions"):
                self._send(404, {})
                return
            ok = state.admit()
            time.sleep(latency_s)
            if not ok:
                self._send(503, {"error": "injected"})
                return
            body = json.loads(raw)
            contents = state.script.contents(body["messages"][-1]["content"], int(body.get("n", 1)))
            self._send(200, {"choices": [{"message": {"content": c}} for c in contents]})

        def log_message(self, *args):
            pass

    return Handler


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--latency-ms", type=float, required=True)
    ap.add_argument("--error-share", type=float, required=True)
    ap.add_argument("--script", required=True)
    args = ap.parse_args(argv)
    if not 0 <= args.error_share < 0.5:
        ap.error("--error-share must be within [0, 0.5)")
    with open(args.script, encoding="utf-8") as fh:
        script = Script(json.load(fh))
    state = StubState(args.seed, args.error_share, script)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state, args.latency_ms / 1000))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"PORT {server.server_port}", flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

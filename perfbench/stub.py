"""Stub model server: scripted completions and mock embeddings over HTTP.

Serves the two contracts the egolog HTTP backends speak:

- POST /complete  {"system", "user", "seed"?} -> {"text"}
- POST /embed     {"texts": [...]}             -> {"embeddings": [[...], ...]}

plus POST /calibrate (an empty reply with no injected latency), GET /stats
(request, text and character counts, handling time) and POST /reset.

Completions are scripted from the caption log in the prompt, the way the
test suite's scripted backends answer: a QA prompt gets the option whose
text appears verbatim in the log, an NLQ prompt gets the spans of the
caption lines containing each query's phrase, and any other prompt is a
caption merge, answered with its first line plus " for a while".
Embeddings are seeded feature hashes of character trigrams, the same
vectors egolog's mock embedder computes, re-implemented here so the stub
does not run the code under test.

Every request waits a fixed injected latency, LATENCY_MS. Failures are
chosen by a hash of the request alone, never by arrival order or by what
came before, so they are the same at any client pool size:

- a QA completion fails for a share FAIL_SHARE of (prompt, seed) pairs,
  half as HTTP 400 and half as prose with no JSON block;
- a merge completion fails with HTTP 503 for a share FAIL_SHARE of merge
  prompts, on every request of such a prompt;
- NLQ completions and embeddings never fail.

Each response goes out in one write: status line, headers and body in one
buffer, so the client never waits on a delayed ACK between them.

Run as a script: python3 perfbench/stub.py
It prints "port <n>" on stdout once it listens on 127.0.0.1.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

_QA_QID = re.compile(r"^Question \(qid (.+?)\): ", re.MULTILINE)
_OPTION = re.compile(r"^\(([A-E])\) (.*)$", re.MULTILINE)
_NLQ_QUERY = re.compile(r"^\d+\. \(qid (.+?)\) (.*)$", re.MULTILINE)
_CAPTION_LINE = re.compile(r"^(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?): (.*)$", re.MULTILINE)

# well above the ~8 ms of CPU a request costs client and stub together, so
# that the latency-bound workloads wait more than they compute, and their
# wall time moves less with the CPU time the host takes away
LATENCY_MS = 40.0
FAIL_SHARE = 0.04
PROSE = "I could not work out the answer from the captions, sorry."
# egolog's default embedder.dim, and the seed its mock embedder always uses
EMBED_DIM = 64
EMBED_KEY = (0).to_bytes(8, "little", signed=True)


def hash_share(*parts: object) -> float:
    """A uniform number in [0, 1) fixed by the parts' text."""
    digest = hashlib.sha256("\x00".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") / 2.0**64


def mock_embedding(text: str) -> list[float]:
    """The vector egolog's MockEmbedder(seed=0, dim=64) gives the text."""
    data = b"\x02" + text.encode("utf-8") + b"\x03"
    vec = np.zeros(EMBED_DIM)
    for i in range(len(data) - 2):
        h = int.from_bytes(
            hashlib.blake2b(data[i : i + 3], key=EMBED_KEY, digest_size=8).digest(), "little"
        )
        vec[(h >> 8) % EMBED_DIM] += 1.0 if h & 1 == 0 else -1.0
    if not np.any(vec):
        h = int.from_bytes(
            hashlib.blake2b(data, key=EMBED_KEY, digest_size=8).digest(), "little"
        )
        vec[(h >> 8) % EMBED_DIM] = 1.0 if h & 1 == 0 else -1.0
    return vec.tolist()


def answer_qa(user: str, seed: object) -> str:
    qid = _QA_QID.search(user).group(1)
    log_text = user.split("Question (qid", 1)[0]
    letter, confidence = "A", 1
    for match in _OPTION.finditer(user):
        if match.group(2) and match.group(2) in log_text:
            # sampled runs differ in how sure they say they are
            letter, confidence = match.group(1), 2 + (hash_share(user, seed) < 0.5)
            break
    entry = {"qid": qid, "answer": letter, "confidence": confidence,
             "explanation": "an option text appears in the log"}
    return "```json\n" + json.dumps([entry]) + "\n```"


def answer_nlq(user: str) -> str:
    captions = [(float(a), float(b), t) for a, b, t in _CAPTION_LINE.findall(user)]
    entries = []
    for qid, text in _NLQ_QUERY.findall(user):
        phrase = text.split("find: ", 1)[-1]
        intervals = [[s, e] for s, e, t in captions if phrase in t]
        entries.append({"qid": qid, "intervals": intervals or "NA",
                        "explanation": "span read off the log",
                        "confidence": 3 if intervals else 1})
    return "```json\n" + json.dumps(entries) + "\n```"


class StubState:
    """Request counters, zeroed by POST /reset."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.counts = {
                "complete_requests": 0, "complete_failed": 0, "complete_chars": 0,
                "complete_merge": 0, "merge_503": 0, "embed_requests": 0,
                "embed_texts": 0, "embed_chars": 0, "handle_s": 0.0,
            }

    def add(self, **deltas: float) -> None:
        with self.lock:
            for name, delta in deltas.items():
                self.counts[name] += delta

    def complete(self, body: dict) -> tuple[int, dict]:
        system, user = body.get("system", ""), body.get("user", "")
        seed = body.get("seed")
        self.add(complete_requests=1, complete_chars=len(system) + len(user))
        if _QA_QID.search(user):
            share = hash_share(system, user, seed)
            if share < FAIL_SHARE / 2:
                self.add(complete_failed=1)
                return 400, {"error": "request rejected"}
            if share < FAIL_SHARE:
                self.add(complete_failed=1)
                return 200, {"text": PROSE}
            return 200, {"text": answer_qa(user, seed)}
        if _NLQ_QUERY.search(user):
            return 200, {"text": answer_nlq(user)}
        self.add(complete_merge=1)
        if hash_share(system, user) < FAIL_SHARE:
            self.add(complete_failed=1, merge_503=1)
            return 503, {"error": "overloaded"}
        # a repeated action, summarised the way a model would put it
        return 200, {"text": user.split("\n", 1)[0] + " for a while"}

    def embed(self, body: dict) -> tuple[int, dict]:
        texts = body["texts"]
        self.add(embed_requests=1, embed_texts=len(texts),
                 embed_chars=sum(len(t) for t in texts))
        return 200, {"embeddings": [mock_embedding(t) for t in texts]}


class Handler(BaseHTTPRequestHandler):
    server_version = "perfbench-stub"
    state: StubState

    def log_message(self, format, *args):  # noqa: A002 - the base class's name
        pass

    def _reply(self, status: int, payload: dict, handle_s: float) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Stub-Handle-Ms: {handle_s * 1000:.4f}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        self.close_connection = True
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path == "/stats":
            with self.state.lock:
                counts = dict(self.state.counts)
            self._reply(200, counts, 0.0)
        else:
            self._reply(404, {"error": "not found"}, 0.0)

    def do_POST(self):
        started = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/calibrate":
            self._reply(200, {}, time.perf_counter() - started)
            return
        if self.path == "/reset":
            self.state.reset()
            self._reply(200, {}, 0.0)
            return
        route = {"/complete": self.state.complete, "/embed": self.state.embed}.get(self.path)
        if route is None:
            self._reply(404, {"error": "not found"}, 0.0)
            return
        status, payload = route(json.loads(raw))
        time.sleep(LATENCY_MS / 1000)
        handle_s = time.perf_counter() - started
        self.state.add(handle_s=handle_s)
        self._reply(status, payload, handle_s)


def main() -> None:
    Handler.state = StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    # runs until the benchmark terminates the process
    server.serve_forever()


if __name__ == "__main__":
    main()

"""Replay and HTTP backends, exercised against a real local HTTP server."""

from __future__ import annotations

import dataclasses
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from egolog import similarity
from egolog.cli import main as cli_main
from egolog.config import load_config
from egolog.corpus import write_json
from egolog.errors import (
    BackendProtocolError,
    ConfigError,
    ReplayMissError,
    TransportError,
)
from egolog.llm import HttpLlmBackend, ReplayBackend, prompt_sha256
from egolog.pipeline import run_ask, run_localize
from egolog.retry import call_with_retries
from egolog.similarity import CachedEmbedder, HttpEmbedder, MockEmbedder, embed_batch

from helpers import (
    UNREADABLE,
    CallableBackend,
    HashFailingBackend,
    ScriptedNlqBackend,
    ScriptedQaBackend,
    in_fresh_interpreter,
    main_step,
    needs_unreadable,
    synth_nlq_benchmark,
    synth_qa_benchmark,
    write_run,
)


class TestPromptDigest:
    def test_stable(self):
        assert prompt_sha256("sys", "user") == prompt_sha256("sys", "user")

    def test_separator_prevents_boundary_collisions(self):
        assert prompt_sha256("ab", "c") != prompt_sha256("a", "bc")


class TestReplayBackend:
    def test_hit(self):
        digest = prompt_sha256("s", "u")
        backend = ReplayBackend({digest: {"run_0": "hello", "run_1": "again"}})
        assert backend.complete("s", "u") == "hello"
        assert backend.complete("s", "u", run_index=1) == "again"

    def test_unknown_prompt(self):
        backend = ReplayBackend({})
        with pytest.raises(ReplayMissError, match="no transcript"):
            backend.complete("s", "u")

    def test_unknown_run_index(self):
        digest = prompt_sha256("s", "u")
        backend = ReplayBackend({digest: {"run_0": "hello"}})
        with pytest.raises(ReplayMissError, match="run 3"):
            backend.complete("s", "u", run_index=3)

    def test_file_round_trip(self, tmp_path):
        store = {prompt_sha256("s", "u"): {"run_0": "recorded text"}}
        path = tmp_path / "transcripts.json"
        write_json(path, store)
        loaded = ReplayBackend.from_file(path, inner=CallableBackend(lambda system, user: "live"))
        assert loaded.complete("s", "u") == "recorded text"
        assert loaded.complete("s", "other") == "live"

    def test_file_not_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(BackendProtocolError, match="not a JSON object"):
            ReplayBackend.from_file(path)

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b'{"abc": "\xff"}'],
        ids=["not-json", "not-utf8"],
    )
    def test_undecodable_file_names_it(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        where = f"transcripts file {re.escape(str(path))} is not"
        with pytest.raises(BackendProtocolError, match=where):
            ReplayBackend.from_file(path)

    @needs_unreadable
    def test_unreadable_file_names_it(self):
        where = f"cannot read transcripts file {UNREADABLE}: "
        with pytest.raises(BackendProtocolError, match=where):
            ReplayBackend.from_file(UNREADABLE)

    def test_deeply_nested_file_names_it(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        where = f"transcripts file {re.escape(str(path))} is not UTF-8 JSON"
        with pytest.raises(BackendProtocolError, match=where):
            ReplayBackend.from_file(path)

    @pytest.mark.parametrize(
        "store",
        [{"abc": "text"}, {"abc": ["text"]}, {"abc": {"run_0": 17}}],
        ids=["string-entry", "list-entry", "number-run"],
    )
    def test_entry_not_an_object_of_strings_names_its_key(self, tmp_path, store):
        path = tmp_path / "bad.json"
        good = {prompt_sha256("s", "u"): {"run_0": "fine"}}
        write_json(path, {**good, **store})
        where = f"{re.escape(str(path))}: entry 'abc' is not an object of strings"
        with pytest.raises(BackendProtocolError, match=where):
            ReplayBackend.from_file(path)

    def test_seed_does_not_change_replay(self):
        digest = prompt_sha256("s", "u")
        backend = ReplayBackend({digest: {"run_0": "fixed"}})
        assert backend.complete("s", "u", sampling_seed=1) == backend.complete(
            "s", "u", sampling_seed=999
        )


class _ThreadNames:
    """Passes completions on to inner, noting the name of each calling thread."""

    def __init__(self, inner):
        self.inner = inner
        self.names = set()
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        with self._lock:
            self.names.add(threading.current_thread().name)
        return self.inner.complete(system_text, user_text, sampling_seed, run_index)


class TestRecordingBackend:
    """A ReplayBackend with an inner backend records the replies to its misses."""

    def test_stores_replies_where_replay_reads_them(self):
        replies = iter(["first", "second", "third"])
        recorder = ReplayBackend({}, inner=CallableBackend(lambda system, user: next(replies)))
        assert recorder.complete("s", "u", sampling_seed=4) == "first"
        assert recorder.complete("s", "u", run_index=2) == "second"
        # a prompt and run asked again gets the first reply kept; inner is not asked
        assert recorder.complete("s", "u") == "first"
        assert next(replies) == "third"
        digest = prompt_sha256("s", "u")
        assert recorder.transcripts == {digest: {"run_0": "first", "run_2": "second"}}
        replay = ReplayBackend(recorder.transcripts)
        assert [replay.complete("s", "u", run_index=i) for i in (0, 2)] == ["first", "second"]

    def test_failed_request_stores_nothing(self):
        replies = iter([None, "up"])

        def reply(system, user):
            text = next(replies)
            if text is None:
                raise TransportError("down")
            return text

        recorder = ReplayBackend({}, inner=CallableBackend(reply))
        with pytest.raises(TransportError):
            recorder.complete("s", "u")
        assert recorder.transcripts == {}
        assert recorder.complete("s", "u") == "up"

    def test_racing_misses_of_one_key_get_the_first_reply_kept(self):
        # both misses are in inner at once, and each gets a reply of its own
        meet = threading.Barrier(2, timeout=5)
        replies = iter(["one", "two"])

        def reply(system, user):
            meet.wait()
            return next(replies)

        recorder = ReplayBackend({}, inner=CallableBackend(reply))
        got = [None, None]

        def ask(i):
            got[i] = recorder.complete("s", "u")

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        (stored,) = recorder.transcripts[prompt_sha256("s", "u")].values()
        assert got == [stored, stored]

    def test_store_recorded_on_64_completion_threads_replays_exactly(self, tmp_path):
        tracks, queries = synth_qa_benchmark(n_items=16, captions_per_video=6)
        config = write_run(tmp_path, tracks, queries, "[run]\nseed = 5\nruns = 5\n")
        stores, live = {}, {}
        for limit in (1, 8):
            # waits up to 5 ms per completion, so concurrent ones finish out of order
            threads = _ThreadNames(HashFailingBackend(fail_share=0, inner=ScriptedQaBackend()))
            recorder = ReplayBackend({}, inner=threads)
            loaded = load_config(config, {"run.in_flight_limit": str(limit)})
            live[limit], failures = run_ask(loaded, llm=recorder)
            assert failures == []
            stores[limit] = recorder.transcripts
        # the pass at limit 8 recorded from several completion threads
        assert len({n for n in threads.names if n.startswith("egolog-completion")}) > 1
        assert stores[8] == stores[1]
        assert [len(runs) for runs in stores[1].values()] == [5] * 16
        assert live[8] == live[1]

        write_json(tmp_path / "transcripts.json", stores[8])
        replayed = []
        for limit in (1, 8):
            out = tmp_path / f"replayed_{limit}.jsonl"
            argv = ["ask", "--config", str(config), "--out", str(out)]
            argv += [f"--run.in_flight_limit={limit}", "--paths.transcripts=transcripts.json"]
            assert cli_main(argv) == 0
            replayed.append(out.read_bytes())
        assert replayed[0] == replayed[1]
        assert [json.loads(line) for line in replayed[0].splitlines()] == live[1]


class _Script:
    """Mutable behaviour shared between the test and the HTTP handler."""

    def __init__(self):
        self.fail_next = 0  # respond 503 this many times
        self.status = 200
        self.body: dict | str | bytes = {}
        self.reply = None  # if set, maps a request payload to (status, body)
        self.delay_s = 0.0  # wait this long before replying
        self.cut_body = False  # promise 100 bytes more than sent, then close
        self.reply_headers: dict[str, str] = {}
        self.requests: list[dict] = []
        self.raw_requests: list[bytes] = []
        self.headers: list[dict] = []
        self.lock = threading.Lock()


def _make_handler(script: _Script):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw_request = self.rfile.read(length)
            payload = json.loads(raw_request or b"{}")
            with script.lock:
                script.requests.append(payload)
                script.raw_requests.append(raw_request)
                script.headers.append(dict(self.headers))
                if script.fail_next > 0:
                    script.fail_next -= 1
                    status, body = 503, script.body
                elif script.reply is not None:
                    status, body = script.reply(payload)
                else:
                    status, body = script.status, script.body
            if not isinstance(body, bytes):
                body = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
            time.sleep(script.delay_s)
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                for name, value in script.reply_headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body) + 100 * script.cut_body))
                self.end_headers()
                self.wfile.write(body)
            except OSError:  # the client gave up waiting
                pass

        def log_message(self, fmt, *args):
            pass

    return Handler


@pytest.fixture()
def http_script():
    script = _Script()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(script))
    # a short poll interval, so that shutdown at teardown returns quickly
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    script.endpoint = f"http://127.0.0.1:{server.server_address[1]}/"
    try:
        yield script
    finally:
        server.shutdown()
        server.server_close()


class TestHttpEmbedder:
    def test_round_trip_and_caching(self, http_script):
        http_script.body = {"embeddings": [[1.0, 0.0], [0.0, 1.0]]}
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        out = backend.embed_texts(["alpha", "beta"])
        assert out == [[1.0, 0.0], [0.0, 1.0]]
        assert http_script.requests == [{"texts": ["alpha", "beta"]}]
        # the client itself keeps nothing; each unit's cache wraps it, and
        # serves cached texts without a second request
        cached = CachedEmbedder(backend)
        assert embed_batch(cached, ["alpha", "beta"]).tolist() == out
        assert embed_batch(cached, ["beta", "alpha"]).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert len(http_script.requests) == 2

    def test_bearer_token_sent(self, http_script, monkeypatch):
        monkeypatch.setenv("EMB_TOKEN", "sesame")
        http_script.body = {"embeddings": [[1.0]]}
        backend = HttpEmbedder(
            http_script.endpoint, auth_env="EMB_TOKEN", sleep=lambda s: None
        )
        backend.embed_texts(["alpha"])
        assert http_script.headers[0].get("Authorization") == "Bearer sesame"

    def test_missing_auth_env_fatal_at_init(self, monkeypatch):
        monkeypatch.delenv("EMB_TOKEN", raising=False)
        with pytest.raises(ConfigError, match="EMB_TOKEN"):
            HttpEmbedder("http://127.0.0.1:1/", auth_env="EMB_TOKEN")

    def test_5xx_retried_then_recovers(self, http_script):
        http_script.fail_next = 2
        http_script.body = {"embeddings": [[1.0]]}
        slept = []
        backend = HttpEmbedder(http_script.endpoint, sleep=slept.append)
        assert backend.embed_texts(["alpha"]) == [[1.0]]
        assert len(http_script.requests) == 3
        assert slept == [1.0, 2.0]

    def test_5xx_budget_exhausted(self, http_script):
        http_script.fail_next = 99
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        with pytest.raises(TransportError, match="503"):
            backend.embed_texts(["alpha"])
        assert len(http_script.requests) == 3

    def test_4xx_is_protocol_error_not_retried(self, http_script):
        http_script.status = 401
        http_script.body = {"error": "no"}
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        with pytest.raises(BackendProtocolError, match="401"):
            backend.embed_texts(["alpha"])
        assert len(http_script.requests) == 1

    def test_malformed_body(self, http_script):
        http_script.body = "not json {"
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        with pytest.raises(BackendProtocolError, match="bad embedding response"):
            backend.embed_texts(["alpha"])

    def test_missing_field(self, http_script):
        http_script.body = {"vectors": [[1.0]]}
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        with pytest.raises(BackendProtocolError, match="bad embedding response"):
            backend.embed_texts(["alpha"])

    def test_embeddings_field_not_a_list(self, http_script):
        http_script.body = {"embeddings": {"alpha": [1.0]}}
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        with pytest.raises(BackendProtocolError, match="embeddings field is not a list"):
            backend.embed_texts(["alpha"])

    def test_count_mismatch(self, http_script):
        http_script.body = {"embeddings": [[1.0]]}
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        with pytest.raises(BackendProtocolError, match="count mismatch"):
            embed_batch(backend, ["alpha", "beta"])

    def test_unreachable_endpoint_is_transport_error(self):
        backend = HttpEmbedder("http://127.0.0.1:9/", sleep=lambda s: None)
        with pytest.raises(TransportError, match="unreachable"):
            backend.embed_texts(["alpha"])

    def test_long_batch_sent_in_capped_requests(self, http_script, monkeypatch):
        monkeypatch.setattr(similarity, "EMBED_MAX_TEXTS", 2)
        failed = []

        def reply(payload):
            texts = payload["texts"]
            if len(texts) > 2:
                return 413, {"error": "too many inputs"}
            if texts == ["c", "d"] and not failed:
                failed.append(texts)
                return 503, {"error": "busy"}
            return 200, {"embeddings": [[float(ord(t)), 1.0] for t in texts]}

        http_script.reply = reply
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        rows = embed_batch(CachedEmbedder(backend), list("abcde"))
        assert rows.tolist() == [[float(ord(t)), 1.0] for t in "abcde"]
        # the 503 resends only the chunk it answered
        assert [r["texts"] for r in http_script.requests] == [
            ["a", "b"],
            ["c", "d"],
            ["c", "d"],
            ["e"],
        ]

    def test_each_capped_request_checks_its_row_count(self, http_script, monkeypatch):
        # one row short, then one row long: the total of 4 matches the texts
        monkeypatch.setattr(similarity, "EMBED_MAX_TEXTS", 2)
        replies = {
            ("a", "b"): [[1.0, 0.0]],
            ("c", "d"): [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
        }
        http_script.reply = lambda payload: (
            200,
            {"embeddings": replies[tuple(payload["texts"])]},
        )
        backend = HttpEmbedder(http_script.endpoint, sleep=lambda s: None)
        with pytest.raises(BackendProtocolError, match="count mismatch: sent 2 texts"):
            backend.embed_texts(list("abcd"))
        assert [r["texts"] for r in http_script.requests] == [["a", "b"]]


@pytest.mark.parametrize("command", ["ask", "localize"])
def test_commands_over_the_cap_match_the_offline_embedder(
    http_script, monkeypatch, tmp_path, command
):
    # 12 captions per video, 3 times the cap; each video of ask has two
    # questions, so ask also sends its shared request per video
    monkeypatch.setattr(similarity, "EMBED_MAX_TEXTS", 4)
    mock = MockEmbedder(seed=0, dim=16)

    def reply(payload):
        texts = payload["texts"]
        if len(texts) > 4:
            return 413, {"error": "too many inputs"}
        return 200, {"embeddings": mock.embed_texts(texts).tolist()}

    http_script.reply = reply
    if command == "ask":
        tracks, queries = synth_qa_benchmark(n_items=2)
        queries += [dataclasses.replace(q, qid=q.qid + "b") for q in queries]
        run, llm = run_ask, ScriptedQaBackend()
    else:
        tracks, queries = synth_nlq_benchmark(n_items=2)
        run, llm = run_localize, ScriptedNlqBackend()
    sections = "[run]\nseed = 5\n[digest]\nrelevance_threshold = 0.1\n"
    config = load_config(write_run(tmp_path, tracks, queries, sections))
    over_http = run(config, embedder=HttpEmbedder(http_script.endpoint), llm=llm)
    offline = run(config, embedder=MockEmbedder(seed=0, dim=16), llm=llm)
    assert over_http == offline
    assert over_http[1] == []
    sizes = [len(r["texts"]) for r in http_script.requests]
    assert max(sizes) == 4 and sum(sizes) > 2 * 12


class TestHttpLlmBackend:
    def test_round_trip_with_seed(self, http_script):
        http_script.body = {"text": "the answer"}
        backend = HttpLlmBackend(http_script.endpoint)
        out = backend.complete("sys text", "user text", sampling_seed=42)
        assert out == "the answer"
        assert http_script.requests == [
            {"system": "sys text", "user": "user text", "seed": 42}
        ]

    def test_seed_omitted_when_none(self, http_script):
        http_script.body = {"text": "ok"}
        HttpLlmBackend(http_script.endpoint).complete("s", "u")
        assert "seed" not in http_script.requests[0]

    def test_bearer_token_sent(self, http_script, monkeypatch):
        monkeypatch.setenv("LLM_TOKEN", "opensesame")
        http_script.body = {"text": "ok"}
        HttpLlmBackend(http_script.endpoint, auth_env="LLM_TOKEN").complete("s", "u")
        assert http_script.headers[0].get("Authorization") == "Bearer opensesame"

    def test_missing_auth_env_fatal_at_init(self, monkeypatch):
        monkeypatch.delenv("LLM_TOKEN", raising=False)
        with pytest.raises(ConfigError, match="LLM_TOKEN"):
            HttpLlmBackend("http://127.0.0.1:1/", auth_env="LLM_TOKEN")

    def test_5xx_is_transport_error(self, http_script):
        http_script.status = 500
        with pytest.raises(TransportError, match="500"):
            HttpLlmBackend(http_script.endpoint).complete("s", "u")

    def test_4xx_is_protocol_error(self, http_script):
        http_script.status = 404
        with pytest.raises(BackendProtocolError, match="404"):
            HttpLlmBackend(http_script.endpoint).complete("s", "u")

    def test_malformed_body(self, http_script):
        http_script.body = "not json {"
        with pytest.raises(BackendProtocolError, match="bad completion response"):
            HttpLlmBackend(http_script.endpoint).complete("s", "u")

    def test_missing_field(self, http_script):
        http_script.body = {"reply": "ok"}
        with pytest.raises(BackendProtocolError, match="bad completion response"):
            HttpLlmBackend(http_script.endpoint).complete("s", "u")

    def test_text_field_must_be_string(self, http_script):
        http_script.body = {"text": 17}
        with pytest.raises(BackendProtocolError, match="not a string"):
            HttpLlmBackend(http_script.endpoint).complete("s", "u")

    def test_unreachable_endpoint(self):
        backend = HttpLlmBackend("http://127.0.0.1:9/")
        with pytest.raises(TransportError, match="unreachable"):
            backend.complete("s", "u")


# quotes and non-ASCII, so the wire test also covers JSON's escapes
WIRE_TEXT = 'C says "café" \u2615'


def _send(kind: str, endpoint: str, auth_env: str | None = None, sleep=lambda s: None) -> dict:
    """One request of kind, retried as a run retries it; returns its payload."""
    if kind == "completion":
        backend = HttpLlmBackend(endpoint, auth_env=auth_env)
        call_with_retries(lambda: backend.complete("sys", WIRE_TEXT, sampling_seed=7), sleep=sleep)
        return {"system": "sys", "user": WIRE_TEXT, "seed": 7}
    HttpEmbedder(endpoint, auth_env=auth_env, sleep=sleep).embed_texts([WIRE_TEXT])
    return {"texts": [WIRE_TEXT]}


@pytest.mark.parametrize("kind", ["completion", "embedding"])
class TestPostJson:
    """retry.post_json, the one HTTP call of both clients."""

    OK = {"text": "ok", "embeddings": [[1.0]]}

    @pytest.mark.parametrize("auth_env", [None, "WIRE_TOKEN"])
    def test_bytes_and_headers_on_the_wire(self, http_script, monkeypatch, kind, auth_env):
        monkeypatch.setenv("WIRE_TOKEN", "sesame")
        http_script.body = self.OK
        payload = _send(kind, http_script.endpoint, auth_env)
        # the body requests sent: json.dumps with its default separators and escapes
        assert http_script.raw_requests == [json.dumps(payload).encode()]
        (headers,) = http_script.headers
        assert headers["Content-Type"] == "application/json"
        assert headers.get("Authorization") == ("Bearer sesame" if auth_env else None)

    def test_reply_slower_than_the_timeout_is_retried_then_raised(
        self, http_script, monkeypatch, kind
    ):
        monkeypatch.setattr("egolog.llm.COMPLETION_TIMEOUT_S", 0.05)
        monkeypatch.setattr("egolog.similarity.EMBED_TIMEOUT_S", 0.05)
        http_script.body = self.OK
        http_script.delay_s = 0.3
        slept = []
        with pytest.raises(TransportError, match="timed out"):
            _send(kind, http_script.endpoint, sleep=slept.append)
        # the server may not have read the last attempt yet, so count sleeps
        assert slept == [1.0, 2.0]

    def test_connection_closed_mid_body_is_retried_then_raised(self, http_script, kind):
        http_script.body = self.OK
        http_script.cut_body = True
        with pytest.raises(TransportError, match="100 more expected"):
            _send(kind, http_script.endpoint)
        assert len(http_script.requests) == 3

    @pytest.mark.parametrize("status", [204, 307])
    def test_success_or_redirect_status_is_protocol_error(self, http_script, kind, status):
        http_script.status = status
        http_script.body = ""
        http_script.reply_headers = {"Location": http_script.endpoint + "moved"}
        with pytest.raises(BackendProtocolError, match=f"endpoint returned {status}"):
            _send(kind, http_script.endpoint)
        # neither retried nor followed
        assert len(http_script.requests) == 1

    def test_4xx_body_not_utf8_is_still_quoted(self, http_script, kind):
        http_script.status = 422
        http_script.body = b"\xff\xfe too long \xc3"
        message = "endpoint returned 422: \ufffd\ufffd too long \ufffd$"
        with pytest.raises(BackendProtocolError, match=message):
            _send(kind, http_script.endpoint)

    def test_url_urllib_would_open_as_a_file_is_transport_error(self, tmp_path, kind):
        reply = tmp_path / "reply.json"
        reply.write_text(json.dumps(self.OK), encoding="utf-8")
        with pytest.raises(TransportError, match="not an http"):
            _send(kind, reply.as_uri())


def test_ask_over_http_never_imports_requests(http_script, tmp_path):
    tracks, queries = synth_qa_benchmark(n_items=3)
    mock = MockEmbedder(seed=0, dim=16)
    qa = ScriptedQaBackend()

    def reply(payload):
        if "texts" in payload:
            return 200, {"embeddings": mock.embed_texts(payload["texts"]).tolist()}
        return 200, {"text": qa.complete(payload["system"], payload["user"])}

    http_script.reply = reply
    endpoint = http_script.endpoint
    sections = (
        f"[run]\nseed = 5\nruns = 2\n[llm]\nkind = http\nendpoint = {endpoint}\n"
        f"[embedder]\nkind = http\nendpoint = {endpoint}\n"
    )
    config = write_run(tmp_path, tracks, queries, sections)
    out = tmp_path / "answers.jsonl"
    step = main_step(["ask", "--config", str(config), "--out", str(out)])
    code, loaded = in_fresh_interpreter(step, tmp_path / "result.json")
    assert code == 0
    assert len(out.read_text().splitlines()) == len(queries)
    assert qa.calls == 2 * len(queries)
    assert any("texts" in r for r in http_script.requests)
    assert [m for m in loaded if m == "requests" or m.startswith("requests.")] == []

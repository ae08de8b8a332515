"""Tests for the corpus generation client against a local HTTP server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cfakit import (
    GenerationConfig,
    Prompt,
    ValidationError,
    generate_corpus,
)
from cfakit.fileio import load_corpus
from cfakit.generation import CORPUS_FILE, ERRORS_FILE


class _StubHandler(BaseHTTPRequestHandler):
    """Echoes 'generated: <prompt>' and records every request it serves."""

    fail_when_containing: str | None = None
    seen: list[dict]

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        prompt = body.get("prompt", "")
        marker = type(self).fail_when_containing
        if marker is not None and marker in prompt:
            self.send_response(500)
            self.end_headers()
            return
        payload = json.dumps({"text": f"generated: {prompt}"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.seen = []
    _StubHandler.fail_when_containing = None
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}/generate"
    try:
        yield url
    finally:
        server.shutdown()
        thread.join()


def _prompts(n):
    return [
        Prompt(
            prompt_id=f"p{i:05d}",
            label=f"L{i % 3}",
            publication_type="article",
            source="someone",
            text=f"prompt number {i}",
        )
        for i in range(1, n + 1)
    ]


def test_generate_happy_path(stub_server, tmp_path):
    outcome = generate_corpus(_prompts(5), GenerationConfig(stub_server), tmp_path)
    assert outcome.fetched == 5
    assert outcome.skipped == 0
    assert outcome.errors == ()
    lines = (tmp_path / CORPUS_FILE).read_text().splitlines()
    assert len(lines) == 5
    records = [json.loads(line) for line in lines]
    assert [r["prompt_id"] for r in records] == [f"p{i:05d}" for i in range(1, 6)]
    assert records[0]["text"] == "generated: prompt number 1"
    assert records[0]["label"] == "L1"
    assert records[0]["doc_id"] == records[0]["prompt_id"]
    assert (tmp_path / ERRORS_FILE).read_text() == ""


def test_generate_isolates_failures(stub_server, tmp_path):
    _StubHandler.fail_when_containing = "number 2"
    outcome = generate_corpus(_prompts(3), GenerationConfig(stub_server), tmp_path)
    assert outcome.fetched == 2
    assert len(outcome.errors) == 1
    assert outcome.errors[0]["prompt_id"] == "p00002"
    stored = (tmp_path / CORPUS_FILE).read_text().splitlines()
    assert len(stored) == 2
    error_lines = (tmp_path / ERRORS_FILE).read_text().splitlines()
    assert len(error_lines) == 1
    assert json.loads(error_lines[0])["prompt_id"] == "p00002"


def test_generate_resumes_without_refetching(stub_server, tmp_path):
    config = GenerationConfig(stub_server)
    first = generate_corpus(_prompts(3), config, tmp_path)
    assert first.fetched == 3
    hits_after_first = len(_StubHandler.seen)

    second = generate_corpus(_prompts(5), config, tmp_path)
    assert second.skipped == 3
    assert second.fetched == 2
    # only the two new prompts hit the server
    assert len(_StubHandler.seen) - hits_after_first == 2
    lines = (tmp_path / CORPUS_FILE).read_text().splitlines()
    assert [json.loads(line)["prompt_id"] for line in lines] == [
        f"p{i:05d}" for i in range(1, 6)
    ]


def test_generate_retries_failed_prompts_on_rerun(stub_server, tmp_path):
    config = GenerationConfig(stub_server)
    _StubHandler.fail_when_containing = "number 2"
    generate_corpus(_prompts(3), config, tmp_path)
    _StubHandler.fail_when_containing = None
    outcome = generate_corpus(_prompts(3), config, tmp_path)
    # the failed prompt is not stored, so the rerun fetches it again
    assert outcome.skipped == 2
    assert outcome.fetched == 1
    assert outcome.errors == ()
    assert (tmp_path / ERRORS_FILE).read_text() == ""
    assert len((tmp_path / CORPUS_FILE).read_text().splitlines()) == 3


def test_generate_sends_bearer_token(stub_server, tmp_path):
    config = GenerationConfig(stub_server, auth_token="sekret")
    generate_corpus(_prompts(1), config, tmp_path)
    assert _StubHandler.seen[0]["auth"] == "Bearer sekret"
    assert _StubHandler.seen[0]["body"] == {"prompt": "prompt number 1"}


def test_generate_omits_auth_header_without_token(stub_server, tmp_path):
    generate_corpus(_prompts(1), GenerationConfig(stub_server), tmp_path)
    assert _StubHandler.seen[0]["auth"] is None


def test_generate_rejects_duplicate_prompt_ids(tmp_path):
    prompt = _prompts(1)[0]
    with pytest.raises(ValidationError, match="unique"):
        generate_corpus([prompt, prompt], GenerationConfig("http://x"), tmp_path)


def test_generation_config_validation():
    with pytest.raises(ValidationError):
        GenerationConfig("")
    with pytest.raises(ValidationError):
        GenerationConfig("http://x", max_concurrency=0)


def test_generate_connection_error_is_per_prompt(tmp_path):
    # a port nothing listens on: the error lands in the log, not a raise
    config = GenerationConfig("http://127.0.0.1:9/generate", timeout=0.5)
    outcome = generate_corpus(_prompts(2), config, tmp_path)
    assert outcome.fetched == 0
    assert len(outcome.errors) == 2


def test_stored_text_may_hold_unicode_line_separators(tmp_path):
    # JSON written without ASCII escapes keeps U+2028 raw inside a string
    record = {"doc_id": "p1", "prompt_id": "p1", "label": "A", "text": "one\u2028two"}
    (tmp_path / CORPUS_FILE).write_text(
        json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    assert [d.text for d in load_corpus(tmp_path / CORPUS_FILE)] == ["one\u2028two"]
    prompt = Prompt(prompt_id="p1", label="A", publication_type="t", source="s", text="x")
    outcome = generate_corpus([prompt], GenerationConfig("http://127.0.0.1:9"), tmp_path)
    assert (outcome.fetched, outcome.skipped) == (0, 1)
    assert outcome.records[0]["text"] == "one\u2028two"


class _Interrupted(BaseException):
    """Stands in for Ctrl-C: not an error the client records per prompt."""


def test_interrupted_run_keeps_fetched_records_and_resumes(stub_server, tmp_path, monkeypatch):
    from cfakit import generation

    config = GenerationConfig(stub_server, max_concurrency=1)
    whole = tmp_path / "whole"
    generate_corpus(_prompts(6), config, whole)
    hits_whole = len(_StubHandler.seen)

    real_fetch = generation._fetch
    calls = []

    def fetch_then_interrupt(prompt, config):
        calls.append(prompt.prompt_id)
        if len(calls) > 2:
            raise _Interrupted
        return real_fetch(prompt, config)

    part = tmp_path / "part"
    monkeypatch.setattr(generation, "_fetch", fetch_then_interrupt)
    with pytest.raises(_Interrupted):
        generate_corpus(_prompts(6), config, part)
    monkeypatch.setattr(generation, "_fetch", real_fetch)
    # the two fetched records reached the file before the interruption
    stored = (part / CORPUS_FILE).read_text().splitlines()
    assert [json.loads(line)["prompt_id"] for line in stored] == ["p00001", "p00002"]
    fetched = (part / CORPUS_FILE).read_bytes()

    # a crash in the middle of a third append leaves a torn last line,
    # which may end inside a multibyte character
    for torn in (b'{"doc_id": "p00003", "te', '{"doc_id": "p00003", "text": "\u00e9'.encode()[:-1]):
        resumed = tmp_path / f"resumed{len(torn)}"
        resumed.mkdir()
        (resumed / CORPUS_FILE).write_bytes(fetched + torn)
        hits_before = len(_StubHandler.seen)
        outcome = generate_corpus(_prompts(6), config, resumed)
        assert (outcome.skipped, outcome.fetched) == (2, 4)
        assert len(_StubHandler.seen) - hits_before == hits_whole - 2
        assert (resumed / CORPUS_FILE).read_bytes() == (whole / CORPUS_FILE).read_bytes()

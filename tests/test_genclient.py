from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from icr.corpus import Turn
from icr.errors import (
    MalformedRecord,
    MissingField,
    MissingRequired,
    MissingScriptEntry,
    ProviderUnavailable,
)
from icr.genclient import (
    RemoteChatClient,
    ScriptedMock,
    generate_clarification,
    generate_rewrite,
    generate_trajectory_text,
    render_clarify_prompt,
    render_conversation,
    render_rewrite_prompt,
    run_in_order,
)

from .support import write_mock_script

DATA = Path(__file__).parent / "data"


def test_clarify_prompt_matches_golden():
    got = render_clarify_prompt("Has she produced anything else?")
    assert got == (DATA / "clarify_prompt.golden.txt").read_text(encoding="utf-8")


def test_rewrite_prompt_matches_golden():
    history = [Turn("Who produced the original show one foot in the grave?", "Susan Belbin.")]
    got = render_rewrite_prompt(
        history, "Has she produced anything else?", 'Who does "she" refer to?'
    )
    assert got == (DATA / "rewrite_prompt.golden.txt").read_text(encoding="utf-8")


def test_render_conversation_empty_history():
    assert render_conversation([], "who won?") == "Q: who won?"


def test_render_conversation_q_a_lines():
    history = [Turn("q1", "a1"), Turn("q2", "a2")]
    assert render_conversation(history, "q3") == "Q: q1\nA: a1\nQ: q2\nA: a2\nQ: q3"


def test_mock_scripted_clarification():
    mock = ScriptedMock().add("clarify", "Has she produced anything else?", 'Who does "she" refer to?')
    out = generate_clarification(mock, "Has she produced anything else?")
    assert out == 'Who does "she" refer to?'


def test_mock_scripted_rewrite():
    history = [Turn("Who produced the original show one foot in the grave?", "Susan Belbin.")]
    mock = ScriptedMock().add(
        "rewrite",
        'Has she produced anything else?\nWho does "she" refer to?',
        "Has susan belbin produced anything else?",
    )
    out = generate_rewrite(
        mock, history, "Has she produced anything else?", 'Who does "she" refer to?'
    )
    assert out == "Has susan belbin produced anything else?"


def test_mock_missing_entry_raises():
    with pytest.raises(MissingScriptEntry):
        generate_clarification(ScriptedMock(), "unscripted query")


def test_mock_distinguishes_attempts():
    mock = (
        ScriptedMock()
        .add("clarify", "q", "first?", attempt=0)
        .add("clarify", "q", "second?", attempt=1)
    )
    assert generate_clarification(mock, "q", attempt=0) == "first?"
    assert generate_clarification(mock, "q", attempt=1) == "second?"


def test_whitespace_response_is_empty():
    mock = ScriptedMock().add("clarify", "q", "   \n  ")
    assert generate_clarification(mock, "q") == ""


def test_response_stripped():
    mock = ScriptedMock().add("clarify", "q", "  trimmed?  ")
    assert generate_clarification(mock, "q") == "trimmed?"


def test_mock_jsonl_roundtrip(tmp_path):
    mock = (
        ScriptedMock()
        .add("clarify", "q", "c?", attempt=0)
        .add("rewrite", "q\nc?", "r", attempt=2)
    )
    path = tmp_path / "script.jsonl"
    write_mock_script(mock, str(path))
    loaded = ScriptedMock.from_jsonl(str(path))
    assert loaded.script == mock.script



@pytest.mark.parametrize("field", ["kind", "fingerprint", "response"])
def test_mock_jsonl_line_missing_a_field_is_a_data_error(tmp_path, field):
    record = {"kind": "clarify", "fingerprint": "q", "attempt": 0, "response": "c?"}
    del record[field]
    path = tmp_path / "script.jsonl"
    path.write_text('{"kind": "clarify", "fingerprint": "p", "response": "x"}\n' + json.dumps(record) + "\n",
                    encoding="utf-8")
    with pytest.raises(MissingField) as err:
        ScriptedMock.from_jsonl(str(path))
    assert err.value.name == field
    assert f"{path}:2:" in str(err.value)


@pytest.mark.parametrize("attempt", ["x", None, [1]])
def test_mock_jsonl_attempt_that_is_not_an_integer_is_a_data_error(tmp_path, attempt):
    path = tmp_path / "script.jsonl"
    record = {"kind": "clarify", "fingerprint": "q", "attempt": attempt, "response": "c?"}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        ScriptedMock.from_jsonl(str(path))
    assert (err.value.line_no, err.value.reason) == (1, f"attempt {attempt!r} is not an integer")


@pytest.mark.parametrize("response", [5, None, ["c?"]])
def test_mock_jsonl_response_that_is_not_a_string_is_a_data_error(tmp_path, response):
    path = tmp_path / "script.jsonl"
    record = {"kind": "clarify", "fingerprint": "q", "response": response}
    path.write_text('{"kind": "clarify", "fingerprint": "p", "response": "x"}\n' + json.dumps(record) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        ScriptedMock.from_jsonl(str(path))
    assert (err.value.line_no, err.value.reason) == (2, f"response {response!r} is not a string")


def test_trajectory_kind_uses_conversation_fingerprint():
    context = "Q: q1\nA: a1\nQ: q2"
    mock = ScriptedMock().add("trajectory", context, "[Clarification] c [Rewrite] r")
    out = generate_trajectory_text(mock, [Turn("q1", "a1")], "q2")
    assert out == "[Clarification] c [Rewrite] r"


class _FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def raise_for_status(self):
        pass

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.payloads = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.payloads.append(json)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _chat_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def test_remote_client_success_and_attempt_threading():
    session = _FakeSession([_FakeResponse(payload=_chat_payload("a clarification?"))])
    client = RemoteChatClient("http://x/chat", model="m", temperature=0.5, session=session, sleep=lambda s: None)
    out = generate_clarification(client, "q", attempt=2)
    assert out == "a clarification?"
    payload = session.payloads[0]
    assert payload["temperature"] == pytest.approx(0.7)  # 0.5 + 0.1 * 2
    assert payload["seed"] == 2
    assert payload["messages"][0]["content"] == render_clarify_prompt("q")


def test_remote_client_retries_then_gives_up():
    session = _FakeSession([ConnectionError("down")] * 3)
    client = RemoteChatClient(
        "http://x/chat", max_retries=2, session=session, sleep=lambda s: None
    )
    with pytest.raises(ProviderUnavailable):
        client.generate("clarify", "q", "prompt", 0)
    assert len(session.payloads) == 3


def test_remote_client_recovers_after_retryable_status():
    session = _FakeSession(
        [_FakeResponse(status_code=503), _FakeResponse(payload=_chat_payload("ok"))]
    )
    client = RemoteChatClient("http://x/chat", session=session, sleep=lambda s: None)
    assert client.generate("clarify", "q", "prompt", 0) == "ok"


def test_remote_client_from_env(monkeypatch):
    monkeypatch.delenv("ICR_GEN_URL", raising=False)
    with pytest.raises(MissingRequired):
        RemoteChatClient.from_env()
    monkeypatch.setenv("ICR_GEN_URL", "http://gen")
    monkeypatch.setenv("ICR_GEN_KEY", "secret")
    monkeypatch.setenv("ICR_GEN_MODEL", "small")
    client = RemoteChatClient.from_env()
    assert (client.url, client.api_key, client.model) == ("http://gen", "secret", "small")


def test_remote_client_concurrent_calls_share_session():
    session = _FakeSession([_FakeResponse(payload=_chat_payload("ok"))] * 8)
    client = RemoteChatClient("http://x/chat", max_in_flight=2, session=session, sleep=lambda s: None)
    errors = []

    def work():
        try:
            client.generate("clarify", "q", "p", 0)
        except Exception as e:  # pragma: no cover
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(session.payloads) == 8


def test_remote_client_fails_at_once_on_client_error():
    sleeps = []
    session = _FakeSession([_FakeResponse(status_code=404)] * 4)
    client = RemoteChatClient("http://x/chat", session=session, sleep=sleeps.append)
    with pytest.raises(ProviderUnavailable, match="404"):
        client.generate("clarify", "q", "prompt", 0)
    assert len(session.payloads) == 1
    assert sleeps == []


def test_remote_client_backoff_doubles_per_retry():
    sleeps = []
    session = _FakeSession(
        [_FakeResponse(status_code=429), _FakeResponse(status_code=429), _FakeResponse(payload=_chat_payload("ok"))]
    )
    client = RemoteChatClient("http://x/chat", session=session, sleep=sleeps.append)
    assert client.generate("clarify", "q", "prompt", 0) == "ok"
    assert sleeps == [0.5, 1.0]


def test_client_widths():
    assert ScriptedMock().max_in_flight == 1
    client = RemoteChatClient("http://x/chat", max_in_flight=3, session=_FakeSession([]))
    assert client.max_in_flight == 3


def test_leaving_a_batch_does_not_wait_for_requests_in_flight():
    # x0 is answered at once; x1 and x2 hang until released, then get a 503
    release = threading.Event()
    prompts = []

    class HangingSession:
        def post(self, url, json=None, headers=None, timeout=None):
            prompt = json["messages"][0]["content"]
            prompts.append(prompt)
            if prompt == "x0":
                return _FakeResponse(payload=_chat_payload("ok"))
            release.wait(5)
            return _FakeResponse(status_code=503)

    client = RemoteChatClient("http://x/chat", max_in_flight=2, session=HangingSession(), sleep=lambda s: None)
    results = run_in_order(client, lambda c, q: c.generate("clarify", q, q), ["x0", "x1", "x2", "x3"])
    assert next(results) == "ok"
    deadline = time.monotonic() + 5
    while len(prompts) < 3 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert sorted(prompts) == ["x0", "x1", "x2"]
    left = time.monotonic()
    results.close()
    assert time.monotonic() - left < 1.0
    release.set()
    while any(t.name.startswith("icr-gen") for t in threading.enumerate()) and time.monotonic() < deadline:
        time.sleep(0.001)
    # the two hanging requests were not retried, and x3 never started
    assert sorted(prompts) == ["x0", "x1", "x2"]


def test_cli_import_does_not_load_requests():
    import os
    import subprocess
    import sys

    import icr

    env = dict(os.environ, PYTHONPATH=str(Path(icr.__file__).resolve().parents[1]))
    # nor does making the remote clients, which use the stdlib transport
    code = (
        "import sys; import icr.cli\n"
        "from icr.dense_index import RemoteEmbeddingProvider\n"
        "from icr.genclient import RemoteChatClient\n"
        "RemoteChatClient('http://127.0.0.1:9/chat'); RemoteEmbeddingProvider('http://127.0.0.1:9/e', dim=4)\n"
        "print(bool({'requests', 'urllib3'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

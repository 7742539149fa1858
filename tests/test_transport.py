"""The keep-alive stdlib transport of the remote clients, over loopback.

``LoopbackServer`` is a ``ThreadingHTTPServer`` on 127.0.0.1 that counts
the connections it accepts and closes, records every request and answers
from a list of replies (an ``ok`` chat answer once the list is used up).
Run these with ``python -X dev -W error::ResourceWarning`` to catch a
socket left open.
"""

from __future__ import annotations

import http.client
import json
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from icr.dense_index import RemoteEmbeddingProvider
from icr.errors import ProviderUnavailable
from icr.genclient import RemoteChatClient, run_in_order
from icr.transport import USER_AGENT

# urllib ignores HTTP_PROXY when REQUEST_METHOD is set (a CGI environment)
PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "REQUEST_METHOD")


def _chat(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


class Reply:
    """One scripted answer: status, body and headers; ``hang`` waits for the
    server's ``release`` before answering, ``close`` ends the connection
    afterwards without saying so in a header."""

    def __init__(self, status=200, body=None, headers=None, delay=0.0, hang=False, close=False):
        self.status, self.body, self.headers = status, _chat("ok") if body is None else body, headers or {}
        self.delay, self.hang, self.close = delay, hang, close


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    wbufsize = 1 << 16  # one segment per response, no Nagle delay
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 (http.server naming)
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with server.lock:
            server.requests.append((self.requestline, self.headers, body))
            reply = server.replies.pop(0) if server.replies else Reply(delay=server.delay)
        if reply.hang:
            server.release.wait(10)
        time.sleep(reply.delay)
        self.send_response(reply.status)
        for name, value in {"Content-Type": "application/json", **reply.headers}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(reply.body)))
        self.end_headers()
        self.wfile.write(reply.body)
        self.close_connection = reply.close

    def log_message(self, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay: float = 0.0):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.delay = delay
        self.replies: list[Reply] = []
        self.requests: list = []
        self.connections = 0  # accepted
        self.closed = threading.Semaphore(0)  # released once per connection the server closed
        self.release = threading.Event()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def get_request(self):
        request = super().get_request()
        self.connections += 1
        return request

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture()
def servers():
    started = []

    def start(delay: float = 0.0) -> LoopbackServer:
        server = LoopbackServer(delay)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert not thread.is_alive()


@pytest.fixture()
def server(servers):
    return servers()


@pytest.fixture()
def clients():
    """Make remote clients on the stdlib transport and close their
    connections when the test ends, before its servers stop."""
    made = []

    def make(cls=RemoteChatClient, *args, **kwargs):
        client = cls(*args, **kwargs)
        made.append(client)
        return client

    yield make
    for client in made:
        client.session.close()


def test_sequential_calls_share_one_connection(server, clients):
    client = clients(RemoteChatClient, server.url + "/v1/chat?x=1", api_key="k", model="m", sleep=lambda s: None)
    assert [client.generate("clarify", "q", f"p{i}", 0) for i in range(5)] == ["ok"] * 5
    assert server.connections == 1
    line, headers, body = server.requests[0]
    assert line == "POST /v1/chat?x=1 HTTP/1.1"
    assert headers["Authorization"] == "Bearer k"
    assert headers["Content-Type"] == "application/json"
    assert headers["User-Agent"] == USER_AGENT
    assert json.loads(body) == {"model": "m", "messages": [{"role": "user", "content": "p0"}], "temperature": 0.7}


def test_embedding_provider_shares_the_transport(server, clients):
    server.replies = [Reply(body=json.dumps({"vectors": [[0.5] * 4, [0.25] * 4]}).encode())] * 3
    provider = clients(RemoteEmbeddingProvider, server.url + "/embed", dim=4, sleep=lambda s: None)
    for _ in range(3):
        out = provider.embed_batch(["a", "b"], role="query")
        assert np.array_equal(out, [[0.5] * 4, [0.25] * 4])
    assert server.connections == 1
    assert json.loads(server.requests[0][2]) == {"texts": ["a", "b"], "role": "query"}


def test_a_width_four_batch_opens_at_most_four_connections(servers, clients):
    server = servers(delay=0.01)
    client = clients(RemoteChatClient, server.url + "/chat", max_in_flight=4, sleep=lambda s: None)
    results = list(run_in_order(client, lambda c, i: c.generate("clarify", f"q{i}", f"p{i}"), range(16)))
    assert results == ["ok"] * 16
    assert len(server.requests) == 16
    assert 1 <= server.connections <= 4


def test_an_idle_connection_the_server_closed_is_replaced_at_no_cost(server, clients):
    sleeps = []
    server.replies = [Reply(body=_chat("first"), close=True)]
    client = clients(RemoteChatClient, server.url + "/chat", sleep=sleeps.append)
    assert client.generate("clarify", "q", "p", 0) == "first"
    assert server.closed.acquire(timeout=5)  # the server has closed the kept-alive connection
    assert client.generate("clarify", "q", "p", 0) == "ok"
    assert sleeps == []
    assert len(server.requests) == 2  # no attempt was spent on the dead socket
    assert server.connections == 2


def test_a_retryable_status_is_retried_after_the_injected_sleep(server, clients):
    sleeps = []
    server.replies = [Reply(status=503, body=b"busy")]
    client = clients(RemoteChatClient, server.url + "/chat", sleep=sleeps.append)
    assert client.generate("clarify", "q", "p", 0) == "ok"
    assert sleeps == [0.5]
    assert len(server.requests) == 2
    assert server.connections == 1


def test_a_client_error_fails_at_once(server, clients):
    sleeps = []
    server.replies = [Reply(status=404, body=b"{}")] * 4
    client = clients(RemoteChatClient, server.url + "/chat", sleep=sleeps.append)
    with pytest.raises(ProviderUnavailable, match="failed: status 404$"):
        client.generate("clarify", "q", "p", 0)
    assert len(server.requests) == 1
    assert sleeps == []


def test_a_redirect_fails_at_once_naming_its_location(server, clients):
    sleeps = []
    server.replies = [Reply(status=302, body=b"", headers={"Location": "http://elsewhere/chat"})] * 4
    client = clients(RemoteChatClient, server.url + "/chat", sleep=sleeps.append)
    with pytest.raises(ProviderUnavailable, match="status 302, redirect to http://elsewhere/chat not followed"):
        client.generate("clarify", "q", "p", 0)
    assert len(server.requests) == 1
    assert sleeps == []


def test_a_body_that_is_not_json_is_retried(server, clients):
    sleeps = []
    server.replies = [Reply(body=b"<html>gateway</html>")]
    client = clients(RemoteChatClient, server.url + "/chat", sleep=sleeps.append)
    assert client.generate("clarify", "q", "p", 0) == "ok"
    assert sleeps == [0.5]
    assert len(server.requests) == 2


def test_a_read_timeout_is_retried_then_unavailable(server, clients):
    sleeps = []
    server.replies = [Reply(hang=True)] * 2
    client = clients(RemoteChatClient, server.url + "/chat", max_retries=1, timeout=0.05, sleep=sleeps.append)
    with pytest.raises(ProviderUnavailable, match="timed out"):
        client.generate("clarify", "q", "p", 0)
    assert sleeps == [0.5]
    assert len(server.requests) == 2


def test_http_proxy_gets_the_absolute_form_and_no_proxy_bypasses_it(servers, clients, monkeypatch):
    origin, proxy = servers(), servers()
    monkeypatch.setenv("HTTP_PROXY", f"http://us%40er:pw@127.0.0.1:{proxy.server_address[1]}")
    client = clients(RemoteChatClient, origin.url + "/chat", sleep=lambda s: None)
    assert client.generate("clarify", "q", "p", 0) == "ok"
    assert client.generate("clarify", "q", "p", 0) == "ok"
    assert (proxy.connections, origin.connections) == (1, 0)
    line, headers, _ = proxy.requests[0]
    assert line == f"POST {origin.url}/chat HTTP/1.1"
    assert headers["Proxy-Authorization"] == "Basic dXNAZXI6cHc="  # us@er:pw
    assert headers["Host"] == origin.url.removeprefix("http://")

    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    direct = clients(RemoteChatClient, origin.url + "/chat", sleep=lambda s: None)
    assert direct.generate("clarify", "q", "p", 0) == "ok"
    assert (proxy.connections, origin.connections) == (1, 1)
    assert origin.requests[0][0] == "POST /chat HTTP/1.1"
    assert "Proxy-Authorization" not in origin.requests[0][1]


class _RecordingHTTPS:
    """Stands in for ``http.client.HTTPSConnection``: records how it was
    made and refuses to connect, since there are no certificates offline."""

    made: list[_RecordingHTTPS] = []

    def __init__(self, host, port, timeout=None, context=None):
        self.host, self.port, self.timeout, self.context = host, port, timeout, context
        self.tunnel = None
        self.sock = None
        self.made.append(self)

    def set_tunnel(self, host, port=None, headers=None):
        self.tunnel = (host, port, headers)

    def request(self, *args, **kwargs):
        raise ConnectionRefusedError("no TLS endpoint offline")

    def close(self):
        pass


@pytest.mark.parametrize("proxied", [False, True])
def test_https_gets_a_verifying_default_context(monkeypatch, clients, proxied):
    monkeypatch.setattr(http.client, "HTTPSConnection", _RecordingHTTPS)
    monkeypatch.setattr(_RecordingHTTPS, "made", [])
    if proxied:
        monkeypatch.setenv("HTTPS_PROXY", "http://u:p@proxy.test:3128")
    client = clients(RemoteChatClient, "https://gen.test/chat", max_retries=0, timeout=7.0, sleep=lambda s: None)
    with pytest.raises(ProviderUnavailable, match="no TLS endpoint offline"):
        client.generate("clarify", "q", "p", 0)
    (conn,) = _RecordingHTTPS.made
    assert conn.context.verify_mode == ssl.CERT_REQUIRED and conn.context.check_hostname
    assert conn.timeout == 7.0
    if proxied:
        assert (conn.host, conn.port) == ("proxy.test", 3128)
        assert conn.tunnel == ("gen.test", 443, {"Proxy-Authorization": "Basic dTpw"})
    else:
        assert (conn.host, conn.port, conn.tunnel) == ("gen.test", 443, None)


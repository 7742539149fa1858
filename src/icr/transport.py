"""Keep-alive HTTP(S) transport of the remote clients, on the standard library.

``Transport.post(url, json=, headers=, timeout=)`` sends one JSON POST and
returns a ``Response`` with ``status_code``, ``headers`` and ``json()``. That
is the whole interface the remote clients use, so a test can hand them any
object with such a ``post`` instead.

Connections are kept alive and reused, across calls and threads, most
recently used first. A connection is taken for one call and given back when
its response has been read, so no more are open than calls ever ran at once;
the remote clients make calls only while holding one of their in-flight
slots. An idle connection whose socket reads as readable has been closed by
the server (or sent bytes nobody asked for); it is dropped and another one
is taken or opened, which costs the caller no attempt.

Proxies come from the environment (``http_proxy``, ``https_proxy``,
``all_proxy``, ``no_proxy``, upper case too) through ``urllib.request``.
Plain http goes to the proxy in absolute form; https goes through a CONNECT
tunnel. Credentials in the proxy URL are sent as ``Proxy-Authorization:
Basic``. TLS is verified against OpenSSL's trust store
(``ssl.create_default_context``). Redirects are returned, not followed.
"""

from __future__ import annotations

import base64
import http.client
import json as jsonlib
import select
import ssl
import threading
import urllib.request
from urllib.parse import unquote, urlsplit

from . import __version__

USER_AGENT = f"icr/{__version__}"


class Response:
    """Status, headers and body of one HTTP response."""

    __slots__ = ("status_code", "headers", "body")

    def __init__(self, status_code: int, headers, body: bytes):
        self.status_code = status_code
        self.headers = headers
        self.body = body

    def json(self):
        return jsonlib.loads(self.body)


class Transport:
    """A pool of keep-alive connections, shared by every thread of a client."""

    def __init__(self):
        self._idle: dict[tuple[str, str], list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        self._tls: ssl.SSLContext | None = None

    def post(self, url: str, json=None, headers=None, timeout: float | None = None) -> Response:
        parts = urlsplit(url)
        origin = (parts.scheme, parts.netloc)
        conn = self._take(origin) or self._open(parts, timeout)
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        if conn.forward_headers is None:
            target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        else:  # a forward proxy takes the absolute URL
            target = url
        body = jsonlib.dumps(json, allow_nan=False).encode("utf-8")
        try:
            conn.request("POST", target, body, {
                "User-Agent": USER_AGENT,
                "Content-Type": "application/json",
                **(conn.forward_headers or {}),
                **(headers or {}),
            })
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if conn.sock is not None:  # else the server ended the connection with this response
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        return Response(resp.status, resp.headers, data)

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
        for conn in idle:
            conn.close()

    def _take(self, origin: tuple[str, str]) -> http.client.HTTPConnection | None:
        while True:
            with self._lock:
                conns = self._idle.get(origin)
                if not conns:
                    return None
                conn = conns.pop()
            if not _readable(conn.sock):
                return conn
            conn.close()

    def _open(self, parts, timeout: float | None) -> http.client.HTTPConnection:
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise http.client.InvalidURL(f"unsupported URL {parts.geturl()!r}")
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
        if proxy and urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
            proxy = None
        host, port = address = _address(parts, 443 if parts.scheme == "https" else 80)
        auth: dict[str, str] = {}
        if proxy:
            proxy_parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if proxy_parts.scheme != "http" or not proxy_parts.hostname:
                raise http.client.InvalidURL(f"unsupported {parts.scheme} proxy: only http:// proxies are supported")
            if proxy_parts.username is not None:
                userinfo = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(userinfo.encode("utf-8")).decode("ascii")
            host, port = _address(proxy_parts, 80)
        if parts.scheme == "https":
            if self._tls is None:
                self._tls = ssl.create_default_context()
            conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._tls)
            if proxy:
                conn.set_tunnel(*address, headers=auth)
            conn.forward_headers = None
        else:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
            conn.forward_headers = auth if proxy else None
        return conn


def _address(parts, default_port: int) -> tuple[str, int]:
    try:
        return parts.hostname, parts.port or default_port
    except ValueError as e:  # a port that is not a number
        raise http.client.InvalidURL(str(e)) from None


def _readable(sock) -> bool:
    """True when ``sock`` has bytes or an end of stream waiting to be read."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])

"""Generator boundary: clarification questions and query rewrites.

Two client implementations share one calling convention,
``generate(kind, fingerprint, prompt, attempt)``:

  ScriptedMock     deterministic lookup keyed by (kind, fingerprint,
                   attempt); never performs network I/O and a missing
                   entry is an error, never a silent fallback.
  RemoteChatClient chat-completion-style HTTP endpoint with retries,
                   exponential backoff, an in-flight cap, and an optional
                   request-rate limit.

The fingerprint identifies the semantic request (the query being
clarified, or query + clarification being rewritten) independently of the
prompt wording, so mock scripts stay readable. ``attempt`` distinguishes
resamples: the mock scripts them separately and the remote client bumps
temperature and a nonce.

A client may also declare ``max_in_flight``, the number of ``generate``
calls it serves at once (1 when absent). ``run_in_order`` runs that many
samples concurrently and hands back their results in input order.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .corpus import Turn
from .errors import EmptyResponse, MissingRequired, MissingScriptEntry, ProviderUnavailable

if TYPE_CHECKING:
    import requests

GEN_URL_ENV = "ICR_GEN_URL"
GEN_KEY_ENV = "ICR_GEN_KEY"
GEN_MODEL_ENV = "ICR_GEN_MODEL"

CLARIFY_KIND = "clarify"
REWRITE_KIND = "rewrite"
TRAJECTORY_KIND = "trajectory"

CLARIFY_PROMPT = """Given a query, this query may be ambiguous. For example, in this query, pronouns may be used to refer to entities or some components may be omitted, so you need to perform coreference resolution and ellipsis resolution. Please ask a question to clarify any unclear points in the query. You only need to output the clarification question, no need to output extra content. Here are some examples.
Examples:
#Query#: Has she produced anything else?
#Clarification Question#: Who does "she" refer to?

#Query#: Has she produced anything else?
#Clarification Question#: What does "anything else" exclude here?

#Query#: Who were the first settlers?
#Clarification Question#: Where are the settlers referred to here?

Please ask a clarification question about the following query.
#Query#: {query}
#Clarification Question#:"""

REWRITE_PROMPT = """Given a conversation and a clarification question, the final query in the conversation may be ambiguous. Please rephrase the final query based on the clarification question, address the issue raised, and do not change the original meaning. You only need to output the rephrased query without any extra content. Here are some examples.
Examples:
#Clarification Question#:
Who does "she" refer to?
#Conversation#:
Q: Who produced the original show one foot in the grave?
A: Susan Belbin.
Q: Has she produced anything else?
#Rewritten Query#:
Has susan belbin produced anything else?

#Clarification Question#:
What does "anything else" exclude here?
#Conversation#:
Q: Who produced the original show one foot in the grave?
A: Susan Belbin.
Q: Has she produced anything else?
#Rewritten Query#:
Has she produced anything else besides one foot in the grave?

#Clarification Question#:
Where are the settlers referred to here?
#Conversation#:
Q: Where was the indian ocean mentioned above located?
A: Indian Ocean is the third-largest of the world's oceanic divisions, it is bounded by Asia to the north, Africa to the west and Australia to the east. To the south it is bounded by the Southern Ocean or Antarctica, depending on the definition in use. Along its core, the Indian Ocean has some large marginal or regional seas such as the Arabian Sea, the Laccadive Sea, the Somali Sea, Bay of Bengal, and the Andaman Sea.
Q: Who were the first settlers?
#Rewritten Query#:
Who were the first settlers of the indian ocean?

Please rephrase the last query in the conversation based on the clarification question below.
#Clarification Question#:
{clarification}
#Conversation#:
{conversation}
#Rewritten Query#:"""


def render_conversation(history: Sequence[Turn], query: str) -> str:
    """History turns as Q:/A: lines followed by the current query."""
    lines: list[str] = []
    for turn in history:
        lines.append(f"Q: {turn.query}")
        lines.append(f"A: {turn.answer}")
    lines.append(f"Q: {query}")
    return "\n".join(lines)


def render_clarify_prompt(query: str) -> str:
    return CLARIFY_PROMPT.format(query=query)


def render_rewrite_prompt(history: Sequence[Turn], query: str, clarification: str) -> str:
    return REWRITE_PROMPT.format(
        clarification=clarification,
        conversation=render_conversation(history, query),
    )


def clarify_fingerprint(query: str) -> str:
    return query


def rewrite_fingerprint(query: str, clarification: str) -> str:
    return f"{query}\n{clarification}"


class ScriptedMock:
    """Deterministic generator backed by a response table.

    The script maps (kind, fingerprint, attempt) to a response string.
    ``calls`` counts lookups, which tests use to verify control flow. A
    lookup has no wait to overlap (and ``calls`` is not synchronised), so
    the mock serves one call at a time.
    """

    max_in_flight = 1

    def __init__(self, script: dict[tuple[str, str, int], str] | None = None):
        self.script = dict(script or {})
        self.calls = 0

    def add(self, kind: str, fingerprint: str, response: str, attempt: int = 0) -> "ScriptedMock":
        self.script[(kind, fingerprint, attempt)] = response
        return self

    def has_entry(self, kind: str, fingerprint: str, attempt: int = 0) -> bool:
        return (kind, fingerprint, attempt) in self.script

    def generate(self, kind: str, fingerprint: str, prompt: str, attempt: int = 0) -> str:
        self.calls += 1
        try:
            return self.script[(kind, fingerprint, attempt)]
        except KeyError:
            raise MissingScriptEntry(kind, fingerprint, attempt) from None

    @classmethod
    def from_jsonl(cls, path: str) -> "ScriptedMock":
        mock = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                mock.add(
                    obj["kind"],
                    obj["fingerprint"],
                    obj["response"],
                    int(obj.get("attempt", 0)),
                )
        return mock

    def to_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (kind, fingerprint, attempt), response in self.script.items():
                fh.write(
                    json.dumps(
                        {"kind": kind, "fingerprint": fingerprint, "attempt": attempt, "response": response},
                        ensure_ascii=False,
                    )
                    + "\n"
                )


class _RateLimiter:
    """Token-bucket limiter: at most ``rate`` requests per second."""

    def __init__(self, rate: float, sleep=time.sleep, clock=time.monotonic):
        self.interval = 1.0 / rate
        self._next_free = 0.0
        self._lock = threading.Lock()
        self._sleep = sleep
        self._clock = clock

    def wait(self) -> None:
        with self._lock:
            now = self._clock()
            delay = self._next_free - now
            self._next_free = max(now, self._next_free) + self.interval
        if delay > 0:
            self._sleep(delay)


class _Endpoint:
    """An HTTP JSON endpoint and the retry policy of the remote clients.

    Connection errors, 429 and 5xx responses and unreadable bodies are
    retried with exponential backoff; any other 4xx fails at once. One
    in-flight slot is held for the whole call, and the rate limiter (if
    any) is consulted before every attempt, retries included. In a
    ``run_in_order`` batch that has stopped, no further attempt is made.
    """

    _label = "endpoint"  # names the endpoint in ProviderUnavailable

    def __init__(self, url, api_key, max_retries, backoff_seconds, timeout, max_in_flight, session, sleep,
                 requests_per_second=None):
        self.url = url
        self.api_key = api_key
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self._sleep = sleep
        self.max_in_flight = max_in_flight
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._limiter = _RateLimiter(requests_per_second, sleep=sleep) if requests_per_second else None

    def _post(self, payload: dict, read: Callable):
        """POST ``payload`` and return ``read(body)``; ``read`` raising
        KeyError, IndexError, ValueError or TypeError marks the body
        unreadable, which is retried."""
        import requests

        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        with self._slots:
            last_err: object = None
            for i in range(self.max_retries + 1):
                if i:
                    _check_batch()
                    self._sleep(self.backoff_seconds * (2 ** (i - 1)))
                    _check_batch()
                if self._limiter is not None:
                    self._limiter.wait()
                try:
                    resp = self.session.post(self.url, json=payload, headers=headers, timeout=self.timeout)
                except requests.RequestException as e:
                    last_err = e
                    continue
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_err = f"retryable status {resp.status_code}"
                    continue
                if resp.status_code >= 400:
                    raise ProviderUnavailable(f"{self._label} {self.url} failed: status {resp.status_code}")
                try:
                    return read(resp.json())
                except (KeyError, IndexError, ValueError, TypeError) as e:
                    last_err = e
        raise ProviderUnavailable(f"{self._label} {self.url} failed: {last_err}")


class RemoteChatClient(_Endpoint):
    """Chat-completion HTTP client.

    Payload: ``{"model", "messages", "temperature"[, "seed"]}``; response is
    read from ``choices[0].message.content``. Resamples (attempt > 0) bump
    temperature by 0.1 per attempt and send the attempt as a seed nonce so
    the endpoint is not asked the exact same question twice. Retries follow
    the shared endpoint policy (see ``_Endpoint``).
    """

    _label = "generator endpoint"

    def __init__(
        self,
        url: str,
        api_key: str | None = None,
        model: str | None = None,
        temperature: float = 0.7,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        timeout: float = 60.0,
        max_in_flight: int = 4,
        requests_per_second: float | None = None,
        session: requests.Session | None = None,
        sleep=time.sleep,
    ):
        super().__init__(url, api_key, max_retries, backoff_seconds, timeout, max_in_flight, session, sleep,
                         requests_per_second)
        self.model = model
        self.temperature = temperature

    @classmethod
    def from_env(cls, **kwargs) -> "RemoteChatClient":
        url = os.environ.get(GEN_URL_ENV)
        if not url:
            raise MissingRequired(GEN_URL_ENV)
        return cls(
            url,
            api_key=os.environ.get(GEN_KEY_ENV),
            model=os.environ.get(GEN_MODEL_ENV),
            **kwargs,
        )

    def generate(self, kind: str, fingerprint: str, prompt: str, attempt: int = 0) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": round(self.temperature + 0.1 * attempt, 3),
        }
        if attempt > 0:
            payload["seed"] = attempt
        return self._post(payload, lambda body: str(body["choices"][0]["message"]["content"]))


class _Stopped(BaseException):
    """Raised in a worker of a batch that has already failed or been left."""


_batch = threading.local()  # in a pool thread: the stop event of its batch


def _bind_batch(stopped: threading.Event) -> None:
    _batch.stopped = stopped


def _check_batch() -> None:
    """Raise ``_Stopped`` in a pool thread whose batch has stopped; a no-op
    in any other thread."""
    stopped = getattr(_batch, "stopped", None)
    if stopped is not None and stopped.is_set():
        raise _Stopped


class _Guard:
    """Client view shared by one batch's workers; once the batch stops, no
    further ``generate`` call reaches the client."""

    def __init__(self, client):
        self._client = client
        self.stopped = threading.Event()
        self.errors: list[BaseException] = []  # in the order the workers failed

    def __getattr__(self, name):
        return getattr(self._client, name)

    def generate(self, kind: str, fingerprint: str, prompt: str, attempt: int = 0) -> str:
        _check_batch()
        return self._client.generate(kind, fingerprint, prompt, attempt)

    def run(self, work, item):
        _check_batch()
        try:
            return work(self, item)
        except _Stopped:
            raise
        except BaseException as e:
            self.errors.append(e)
            self.stopped.set()
            raise


def run_in_order(client, work: Callable, items: Iterable) -> Iterator:
    """Yield ``work(client, item)`` for every item, in input order.

    Up to ``client.max_in_flight`` items run at once on a thread pool of
    that width, so no call queues for one of the client's in-flight slots.
    At most twice that many items are taken ahead of the one being yielded.
    When a worker raises, or the caller stops early (an error, an
    interrupt, or closing the iterator), pending items are cancelled,
    running ones stop at their next ``generate`` call or retry, and the
    caller does not wait for them. The first worker error is the one raised.
    """
    width = getattr(client, "max_in_flight", 1)
    guard = _Guard(client)
    pool = ThreadPoolExecutor(
        max_workers=width, thread_name_prefix="icr-gen", initializer=_bind_batch, initargs=(guard.stopped,)
    )
    items = iter(items)
    try:
        pending = deque(pool.submit(guard.run, work, item) for item in islice(items, 2 * width))
        while pending:
            future = pending.popleft()
            if future.exception() is not None:
                raise guard.errors[0]
            pending.extend(pool.submit(guard.run, work, item) for item in islice(items, 1))
            yield future.result()
    finally:
        guard.stopped.set()
        pool.shutdown(wait=False, cancel_futures=True)


def generate_clarification(client, query: str, attempt: int = 0) -> str:
    """Ask for one clarification question about a query."""
    out = client.generate(
        CLARIFY_KIND, clarify_fingerprint(query), render_clarify_prompt(query), attempt
    )
    out = out.strip()
    if not out:
        raise EmptyResponse("generator returned an empty clarification")
    return out


def generate_rewrite(
    client, history: Sequence[Turn], query: str, clarification: str, attempt: int = 0
) -> str:
    """Rewrite the current query given a clarification and the conversation."""
    out = client.generate(
        REWRITE_KIND,
        rewrite_fingerprint(query, clarification),
        render_rewrite_prompt(history, query, clarification),
        attempt,
    )
    out = out.strip()
    if not out:
        raise EmptyResponse("generator returned an empty rewrite")
    return out


def generate_trajectory_text(client, history: Sequence[Turn], query: str, attempt: int = 0) -> str:
    """One-shot full-trajectory generation for inference (raw, unvalidated)."""
    context = render_conversation(history, query)
    return client.generate(TRAJECTORY_KIND, context, context, attempt)

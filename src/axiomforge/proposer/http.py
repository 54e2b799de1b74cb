"""Chat-completion HTTP client plus the oracles backed by it.

The wire format is the common one: POST {base_url}/chat/completions with
bearer auth and a JSON body with fields `model`, `messages`, `temperature`,
`n`; proposals are read from `choices[*].message.content`. Any compatible
provider or local stub works via AXIOMFORGE_BASE_URL. Requests go through
the standard library's `urllib.request`, imported on the first request, not
when the package loads; HTTPS verifies against the system trust store, which
`SSL_CERT_FILE` overrides.
"""

from __future__ import annotations

import json
import os
import re
import time

from ..distance import Choice, DistanceOracle, OracleUnavailable
from .config import OracleClientConfig
from .context import ProposalContext
from .extract import fenced_blocks
from .oracles import ProposalOracle
from .prompts import (
    SYSTEM_PROMPT,
    build_prompt,
    comparison_prompt,
    crossover_prompt,
    mutation_prompt,
)

API_KEY_ENV_VAR = "AXIOMFORGE_API_KEY"

_BACKOFF_BASE_S = 0.5
# Longest reply body read; a longer one reads as {}, like one that is not
# JSON. An evolve-http reply is about 40 KB.
_MAX_BODY_BYTES = 4 << 20
_JUDGE_SYSTEM_PROMPT = (
    "You judge how close modified game rules stay to a reference."
    " Answer with the single letter A or B."
)


class AuthError(Exception):
    """Missing or rejected API credentials."""


def _default_transport(url: str, headers: dict, payload: dict, timeout_s: float):
    """POST `payload` as JSON; (status, decoded body). An error status is a
    reply like any other, and a body that is not JSON, nests too deeply to
    decode, or is longer than _MAX_BODY_BYTES, reads as {}."""
    import urllib.parse
    import urllib.request
    from urllib.error import HTTPError

    # urllib would also open file: and ftp: URLs; a misspelt base URL is a
    # configuration error, not something to retry.
    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise OracleUnavailable(f"oracle URL must start with http:// or https://: {url!r}")
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={**headers, "Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            status, raw = resp.status, resp.read(_MAX_BODY_BYTES + 1)
    except HTTPError as err:
        with err:
            status, raw = err.code, err.read(_MAX_BODY_BYTES + 1)
    if len(raw) > _MAX_BODY_BYTES:
        return status, {}
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError):
        body = {}
    return status, body


class HttpChatClient:
    """Minimal chat-completion client with retry and exponential backoff.

    `transport` is injectable for tests: a callable of (url, headers,
    payload, timeout_s) returning (status_code, body); the default sends a
    JSON POST through `urllib.request`. Transport errors (an `OSError`,
    which covers refused connections, timeouts and TLS failures, or an
    `http.client.HTTPException` such as a truncated reply), 429 and 5xx
    responses are retried up to cfg.max_retries with exponential backoff;
    401/403 raise AuthError immediately. `complete` returns one string per
    choice: a body without a list of choices gives [], and a choice without
    string content gives "".
    """

    def __init__(self, cfg: OracleClientConfig, transport=None):
        self.cfg = cfg
        self.transport = transport or _default_transport
        self.transport_calls = 0

    def complete(self, system: str, user: str, n: int = 1) -> list:
        import http.client  # not at load time, which would slow every command's start

        api_key = os.environ.get(API_KEY_ENV_VAR)
        if not api_key:
            raise AuthError(f"set {API_KEY_ENV_VAR} before using the HTTP oracle")
        url = self.cfg.base_url.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {api_key}"}
        payload = {
            "model": self.cfg.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": 1.0,
            "n": n,
        }
        last_error = "no attempt made"
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                time.sleep(_BACKOFF_BASE_S * 2 ** (attempt - 1))
            self.transport_calls += 1
            try:
                status, body = self.transport(url, headers, payload, self.cfg.timeout_ms / 1000.0)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport error: {exc}"
                continue
            if status in (401, 403):
                raise AuthError(f"oracle endpoint rejected credentials ({status})")
            if status >= 500:
                last_error = f"server error {status}"
                continue
            if status == 429:
                last_error = "rate limited (429)"
                continue
            if status != 200:
                raise OracleUnavailable(f"unexpected status {status}")
            choices = body.get("choices") if isinstance(body, dict) else None
            if not isinstance(choices, list):
                return []
            return [_content(choice) for choice in choices]
        raise OracleUnavailable(last_error)


def _content(choice) -> str:
    """The message text of one choice; a malformed choice reads as ""."""
    message = choice.get("message") if isinstance(choice, dict) else None
    content = message.get("content") if isinstance(message, dict) else None
    return content if isinstance(content, str) else ""


class HttpProposalOracle(ProposalOracle):
    """ProposalOracle over the chat client; one request per invocation."""

    def __init__(self, cfg: OracleClientConfig, transport=None):
        super().__init__()
        self.client = HttpChatClient(cfg, transport)

    @property
    def transport_calls(self) -> int:
        return self.client.transport_calls

    def propose(self, ctx: ProposalContext, k: int) -> list:
        """The raw text of every decode's fenced blocks, pooled and
        deduplicated in order. Nothing is parsed here: the run's evaluator
        reads each distinct block once, and the cut to k happens after link
        filtering, so duplicates and unlinkable blocks cannot crowd out
        valid ones."""
        self.calls += 1
        contents = self.client.complete(SYSTEM_PROMPT, build_prompt(ctx), n=self.client.cfg.samples)
        return list(dict.fromkeys(block for content in contents for block in fenced_blocks(content)))

    def _one_block(self, prompt: str, fallback: str) -> str:
        """The raw text of the reply's first fenced block, or `fallback`
        when there is none. Unparsed: the run's evaluator reads it, and a
        block that does not parse or link falls back to parent A there."""
        contents = self.client.complete(SYSTEM_PROMPT, prompt, n=1)
        return next((block for content in contents for block in fenced_blocks(content)), fallback)

    def crossover(self, ctx: ProposalContext, parent_a: str, parent_b: str) -> str:
        self.calls += 1
        return self._one_block(crossover_prompt(ctx, parent_a, parent_b), parent_a)

    def mutate(self, ctx: ProposalContext, candidate: str) -> str:
        self.calls += 1
        return self._one_block(mutation_prompt(ctx, candidate), candidate)


class HttpDistanceOracle(DistanceOracle):
    """Semantic closeness judged by the chat model, majority-voted upstream.

    A comparison's votes come from one request with `n` set to the number
    of votes. A server that returns fewer choices is asked again for the
    missing ones; a reply with no choices counts every missing vote as "A".
    """

    def __init__(self, cfg: OracleClientConfig, transport=None):
        super().__init__(samples_per_query=cfg.samples)
        self.client = HttpChatClient(cfg, transport)

    @property
    def transport_calls(self) -> int:
        return self.client.transport_calls

    def _samples(self, reference: str, a: str, b: str, n: int) -> list[Choice]:
        prompt = comparison_prompt(reference, a, b)
        votes: list[Choice] = []
        while len(votes) < n:
            missing = n - len(votes)
            contents = self.client.complete(_JUDGE_SYSTEM_PROMPT, prompt, n=missing)
            if not contents:
                votes.extend([Choice.A] * missing)
            votes.extend(_vote(content) for content in contents[:missing])
        return votes


# A capital A or B with no letter on either side.
_LONE_CHOICE = re.compile(r"(?<![^\W\d_])[AB](?![^\W\d_])")


def _vote(content: str) -> Choice:
    """The first capital A or B that stands alone in a reply ("Answer: B"),
    or its only letter, in either case ("b.", "(a)"). Any other reply counts
    as "A", and voting smooths it."""
    if sum(ch.isalpha() for ch in content) == 1:
        content = content.upper()
    found = _LONE_CHOICE.search(content)
    return Choice.B if found and found.group() == "B" else Choice.A

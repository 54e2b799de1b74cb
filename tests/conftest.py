import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from axiomforge import corpus
from axiomforge.corpus import variants
from axiomforge.pddl import parse_domain, parse_problem
from axiomforge.planner import SearchLimits
from axiomforge.proposer import builtin_script
from axiomforge.search import CandidateEvaluator, ObjectiveWeights


class StubChatServer:
    """Scriptable chat-completion endpoint for oracle tests."""

    def __init__(self):
        self.responses = []
        self.requests = []
        self.base_url = ""

    def push(self, status, body):
        """Queue one reply; `body` is sent as JSON, or as-is when bytes."""
        self.responses.append((status, body))

    @staticmethod
    def chat_body(*contents):
        return {"choices": [{"message": {"content": c}} for c in contents]}


@pytest.fixture()
def stub_server():
    state = StubChatServer()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            state.requests.append(json.loads(self.rfile.read(length)))
            status, body = state.responses.pop(0) if state.responses else (200, {})
            payload = body if isinstance(body, bytes) else json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits for the serve loop's next poll, so poll often
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    state.base_url = f"http://127.0.0.1:{server.server_port}"
    yield state
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="session")
def blocksworld_entry():
    return corpus.load("blocksworld")


@pytest.fixture(scope="session")
def blocksworld(blocksworld_entry):
    return parse_domain(blocksworld_entry.domain_text)


@pytest.fixture(scope="session")
def flagship(blocksworld_entry):
    return parse_problem(blocksworld_entry.flagship.text)


# A 16-parameter action over the flagship's 3 blocks has 3^16 bindings, and
# none of them is kept: its effect contradicts itself, or its precondition
# is statically false once the last parameter is bound.
WIDE_PARAMS = " ".join(f"?v{i}" for i in range(16))
WIDE_ACTIONS = {
    "contradictory-effect": (
        f"(:action hog :parameters ({WIDE_PARAMS}) :precondition (and)"
        " :effect (and (clear ?v0) (not (clear ?v0))))"
    ),
    "false-last-precondition": (
        f"(:action hog :parameters ({WIDE_PARAMS}) :precondition (not (= ?v15 ?v15))"
        " :effect (clear ?v0))"
    ),
}
# Blocksworld plus a 1000-parameter action that keeps every binding, about
# 7000 characters, within the evaluator's size cap. Each kept binding is a
# 1000-wide tuple: charged as one binding, the default action cap would let
# the grounder hold about 200,000 of them (over 1 GB).
THOUSAND_PARAMS = " ".join(f"?v{i}" for i in range(1000))
THOUSAND_WIDE = (
    corpus.load("blocksworld").domain_text.rstrip()[:-1]
    + f"(:action hog :parameters ({THOUSAND_PARAMS}) :precondition (and) :effect (clear ?v0)))"
)


# MID_EXTRACT whose extract-base action has a second precondition. Read
# with the last one winning, it would be a linkable action that only needs
# an empty arm; a repeated keyword is a duplicate-name error instead.
EXTRACT_PRECONDITION = "(and (on ?above ?ob) (clear ?above) (on-table ?ob) (arm-empty))"
REPEATED_PRECONDITION = variants.MID_EXTRACT.replace(
    EXTRACT_PRECONDITION, EXTRACT_PRECONDITION + "\n        :precondition (and (arm-empty))"
)


@pytest.fixture(params=sorted(WIDE_ACTIONS))
def wide_blocksworld_text(request, blocksworld_entry):
    """Blocksworld plus one 16-parameter action that grounds to nothing."""
    text = blocksworld_entry.domain_text.rstrip()
    return text[:-1] + WIDE_ACTIONS[request.param] + ")\n"


@pytest.fixture(scope="session")
def blocksworld_regression():
    return corpus.regression_suite("blocksworld")


@pytest.fixture()
def scripted_oracle():
    return builtin_script()


@pytest.fixture()
def evaluator(blocksworld, flagship, blocksworld_regression):
    return CandidateEvaluator(
        blocksworld,
        flagship,
        blocksworld_regression,
        limits=SearchLimits(),
        weights=ObjectiveWeights(),
    )

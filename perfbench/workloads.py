"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload builds a fixed list of inputs from the seed at set-up and
runs them in a closed loop with one caller. `run` is the timed operation;
`check` compares its output with a reference that does not come from the
code under test and returns the counts the operation produced.

Calls into axiomforge go through module attributes (`pddl.parse_domain`,
not a name imported from it), so that the traced run sees them.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from axiomforge import corpus, pddl, planner, proposer, search

import instances
from edits import SeededEditOracle, edit_pool

ALGORITHMS = ("bfs", "mcts", "genetic", "beam")

# Optimal plan lengths of the flagship blocksworld:restack instance in the
# paper's figure, per rule set.
FIGURE_OPTIMA = {"original": 6, "multi-lift": 2, "mid-extract": 4}


class CheckFailed(Exception):
    """An operation returned a wrong result."""


class Workload:
    name: str
    inputs: list

    def run(self, item):
        """The timed operation."""
        raise NotImplementedError

    def check(self, item, output) -> dict:
        """Raise CheckFailed on a wrong output; return the op's counts."""
        raise NotImplementedError

    def resync(self) -> None:
        """Called after an operation raised, before the next one."""

    def close(self) -> None:
        """Stop what set-up started."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Task:
    domain: object  # DomainAst
    problem: object  # ProblemAst
    regression: list
    optimum: int  # the corpus's authored optimum for the problem


def _load_task(name: str) -> Task:
    entry = corpus.load(name)
    return Task(
        pddl.parse_domain(entry.domain_text),
        pddl.parse_problem(entry.flagship.text),
        corpus.regression_suite(name),
        entry.flagship.optimal_length,
    )


# -- evolve-scripted ----------------------------------------------------------


@dataclass(frozen=True)
class SearchInput:
    domain: str
    algorithm: str
    target: int
    search_seed: int
    oracle_seed: int = 0


class EvolveScripted(Workload):
    """`run_search` in-process with trajectory recording.

    The flagship runs with the built-in scripted oracle, whose first
    proposal (multi-lift) is the shortest variant of the figure, so every
    algorithm must end at that length for both targets. The other domains
    replay a seeded pool of rule edits against an unreachable target of 0
    steps, so each search runs to its depth, iteration or generation cap.
    They take the inputs left after the flagship's 24, cycling over
    domain and algorithm. The inputs are many so that the figures of a run
    vary little with the seed that drew them.
    """

    name = "evolve-scripted"
    OTHER_DOMAINS = ("casino", "ferry", "miconic")
    FLAGSHIP_TARGETS = (4, 2)
    FLAGSHIP_SEEDS = 3  # search seeds per flagship target and algorithm
    POOL_SIZE = 8
    # A run is whole passes, so every input has the same number of samples.
    # With 75 inputs the p50 and p90 ranks fall in the middle of the 38th
    # and 68th input's block of samples, not on the edge between two inputs.
    INPUTS = 75

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.trajectory = workdir / "trajectory.jsonl"
        self.tasks = {"blocksworld": _load_task("blocksworld")}
        self.pools = {}
        self.inputs = []
        for target in self.FLAGSHIP_TARGETS:
            for algo in ALGORITHMS:
                for _ in range(self.FLAGSHIP_SEEDS):
                    self.inputs.append(SearchInput("blocksworld", algo, target, rng.randrange(2**16)))
        for name in self.OTHER_DOMAINS:
            task = self.tasks[name] = _load_task(name)
            self.pools[name] = edit_pool(task.domain, task.problem, rng, self.POOL_SIZE)
        others = itertools.cycle(itertools.product(self.OTHER_DOMAINS, ALGORITHMS))
        for name, algo in itertools.islice(others, self.INPUTS - len(self.inputs)):
            self.inputs.append(
                SearchInput(name, algo, 0, rng.randrange(2**16), rng.randrange(2**16))
            )
        # Every recorded step must be the original or a text the oracle gave.
        self.allowed = {
            name: {pddl.print_canonical(task.domain), *self.pools.get(name, ())}
            for name, task in self.tasks.items()
        }
        self.allowed["blocksworld"] |= {
            pddl.print_canonical(pddl.parse_domain(text))
            for text in (corpus.variants.MULTI_LIFT, corpus.variants.MID_EXTRACT)
        }

    def run(self, item: SearchInput):
        task = self.tasks[item.domain]
        if item.domain in self.pools:
            oracle = SeededEditOracle(self.pools[item.domain], item.oracle_seed)
        else:
            oracle = proposer.builtin_script()
        cfg = search.SearchConfig(
            algorithm=item.algorithm, target_length=item.target, seed=item.search_seed
        )
        return search.run_search(
            cfg, task.domain, task.problem, task.regression, oracle,
            trajectory_path=self.trajectory,
        )

    def check(self, item: SearchInput, result) -> dict:
        task = self.tasks[item.domain]
        with self.trajectory.open(encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        steps = [r for r in records if r["kind"] == "step"]
        _expect(records[0]["kind"] == "header" and records[-1]["kind"] == "result", "trajectory framing")
        # A search may stop mid-batch, after evaluating candidates it never records.
        _expect(1 <= len(steps) <= result.explored, "at most one trajectory step per evaluation")
        _expect(len({s["domain_text_hash"] for s in steps}) == len(steps), "steps are distinct")
        _expect(steps[0]["plan_length"] == task.optimum, "root plan length is the corpus optimum")
        _expect(all(s["domain_text"] in self.allowed[item.domain] for s in steps), "steps come from the oracle")
        best = result.best
        if item.domain in self.pools:
            _expect(not result.success, "an unreachable target was reported as reached")
        else:
            expected = min(v for k, v in FIGURE_OPTIMA.items() if k != "original" and v <= item.target)
            _expect(result.success, "flagship search failed")
            _expect(best.plan_length == expected, f"flagship best length {best.plan_length} != {expected}")
        _expect(records[-1]["best_length"] == best.plan_length, "result record best length")
        return {
            "search.evaluations": result.explored,
            "trajectory.bytes": self.trajectory.stat().st_size,
        }


# -- plan-scaled --------------------------------------------------------------


class PlanScaled(Workload):
    """parse -> link -> ground -> solve -> validate_plan on generated
    instances whose optimum is known in closed form.

    Blocksworld tower reversal grows the state space and the plan depth;
    hanoi grows the plan length and the number of ground actions per state,
    so grounding takes a larger share of the cost. Each input is one
    instance; 15 of them put the p50 and p90 ranks in the middle of the 8th
    and 14th input's block of samples.
    """

    name = "plan-scaled"
    INSTANCES = (
        *((instances.tower_reversal, n) for n in (5, 6, 7, 8, 5, 6, 7, 8)),
        *((instances.hanoi, n) for n in (3, 4, 5, 6, 7, 6, 7)),
    )
    # The default plan-length cap of 100 would stop hanoi at 7 discs (127).
    LIMITS = planner.SearchLimits(
        max_expanded_states=10_000_000, max_plan_length=1000, wall_budget_ms=120_000
    )

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.domains = {name: corpus.load(name).domain_text for name in ("blocksworld", "hanoi")}
        self.inputs = [make(n, rng) for make, n in self.INSTANCES]

    def run(self, item: instances.Instance):
        task = pddl.link(pddl.parse_domain(self.domains[item.domain]), pddl.parse_problem(item.text))
        grounded = planner.ground(task)
        result = planner.solve(grounded, self.LIMITS)
        valid = planner.validate_plan(grounded, result) if isinstance(result, planner.Plan) else None
        return result, valid

    def check(self, item: instances.Instance, output) -> dict:
        result, valid = output
        _expect(isinstance(result, planner.Plan), f"{item.name}: no plan but {result!r}")
        _expect(result.length == item.optimum, f"{item.name}: {result.length} steps, optimum {item.optimum}")
        _expect(valid == (True, None), f"{item.name}: validate_plan gave {valid}")
        steps = [(step.name, step.args) for step in result.steps]
        _expect(instances.replay(item, steps), f"{item.name}: the plan does not replay to the goal")
        return {}


# -- evolve-http --------------------------------------------------------------


class StubProcess:
    """The stub chat server in its own process; closing stdin stops it.

    Its modules are imported where they are used, so that no workload but
    evolve-http pays for them in `setup_s`.
    """

    def __init__(self, seed: int, latency_ms: float, error_share: float, script: Path):
        import subprocess

        stub = Path(__file__).with_name("stub_server.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(stub), "--seed", str(seed), "--latency-ms", str(latency_ms),
             "--error-share", str(error_share), "--script", str(script)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.port = int(line.split()[1])

    def request_count(self) -> int:
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/count")
            return json.loads(conn.getresponse().read())["requests"]
        finally:
            conn.close()

    def close(self) -> None:
        import subprocess

        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _alias(domain, action_name: str):
    action = domain.action(action_name)
    return replace(domain, actions=domain.actions + (replace(action, name=f"{action_name}-again"),))


class EvolveHttp(Workload):
    """beam and genetic with the HTTP proposal and distance oracles at the
    default 16 samples, against the stub chat server.

    The stub offers, per target, the figure variant that meets it
    (mid-extract for 4 steps, multi-lift for 2) next to filler edits that
    keep the plan length, so the best length must equal that variant's
    optimum. Beam then ranks a pool of three with 32 sequential comparison
    samples; genetic stops in its first generation after one request. Of
    the five inputs three are beam runs, so the p50 and p90 ranks fall in
    the middle of a beam input's block of samples."""

    name = "evolve-http"
    # At 20 ms per round trip a beam run waits about 0.66 s of its 0.8 s, so
    # round trips dominate, as this workload intends.
    LATENCY_MS = 20.0
    # No measured share exists. One request in 1000 gives about two 503s
    # (each a 0.5 s backoff) per run, so every run takes the retry path, and
    # retried runs, about 2% of all, stay above op_ms_p90 instead of
    # deciding it.
    ERROR_SHARE = 0.001
    TARGETS = {4: ("mid-extract", "MID_EXTRACT"), 2: ("multi-lift", "MULTI_LIFT")}
    MIX = (("beam", 4), ("beam", 2), ("beam", 4), ("genetic", 4), ("genetic", 2))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.task = _load_task("blocksworld")
        domain = self.task.domain
        script = workdir / "stub-replies.json"
        script.write_text(json.dumps({
            "fillers": [pddl.print_canonical(_alias(domain, a)) for a in ("pickup", "putdown")],
            "targets": {t: getattr(corpus.variants, v) for t, (_, v) in self.TARGETS.items()},
            "unlinkable": pddl.print_canonical(replace(domain, name="blocksworld-renamed")),
            "malformed": "(define (domain blocksworld)\n  (:action broken :parameters (?x",
        }), encoding="utf-8")
        self.inputs = [
            SearchInput("blocksworld", algo, target, rng.randrange(2**16))
            for algo, target in self.MIX
        ]
        self.stub = StubProcess(seed, self.LATENCY_MS, self.ERROR_SHARE, script)
        self.client_cfg = proposer.OracleClientConfig(base_url=f"http://127.0.0.1:{self.stub.port}/v1")
        self.stub_seen = 0

    def run(self, item: SearchInput):
        oracle = proposer.HttpProposalOracle(self.client_cfg)
        distance = proposer.HttpDistanceOracle(self.client_cfg)
        cfg = search.SearchConfig(
            algorithm=item.algorithm, target_length=item.target, seed=item.search_seed
        )
        result = search.run_search(
            cfg, self.task.domain, self.task.problem, self.task.regression, oracle,
            distance_oracle=distance,
        )
        return result, oracle.transport_calls + distance.transport_calls

    def check(self, item: SearchInput, output) -> dict:
        result, transport_calls = output
        seen = self.stub.request_count()
        received, self.stub_seen = seen - self.stub_seen, seen
        _expect(received == transport_calls, f"stub saw {received} requests, client sent {transport_calls}")
        expected = FIGURE_OPTIMA[self.TARGETS[item.target][0]]
        _expect(result.success, "search over stub edits failed")
        _expect(result.best.plan_length == expected, f"best length {result.best.plan_length} != {expected}")
        return {"search.evaluations": result.explored, "proposer.http.requests": transport_calls}

    def resync(self) -> None:
        self.stub_seen = self.stub.request_count()

    def close(self) -> None:
        self.stub.close()


WORKLOADS = {w.name: w for w in (EvolveScripted, PlanScaled, EvolveHttp)}

"""Pinned search behaviour: evolve output and trajectory step sequences.

Each algorithm runs on the blocksworld flagship at a reachable target (4)
and an unreachable one (0, which drives every loop to its cap), with two
seeds. The expected values below were captured from a known-good build;
any refactor of the search drivers must reproduce them byte for byte.

Two oracles are pinned. The built-in scripted oracle goes through the CLI.
A context-sensitive oracle, whose answers depend on everything the search
puts into a proposal context, goes through the algorithm functions with
their observer hooks, so it also pins history, provenance and memo reuse.
"""

from dataclasses import replace

import pytest

from axiomforge import corpus
from axiomforge.cli import main
from axiomforge.corpus import variants
from axiomforge.distance import LevenshteinMockOracle
from axiomforge.pddl import And, parse_domain, parse_problem, print_canonical
from axiomforge.proposer import NoScriptMatch, ProposalContext, ProposalOracle
from axiomforge.search import (
    CandidateEvaluator,
    SearchConfig,
    SearchRun,
    beam_search,
    bfs_search,
    genetic_search,
    mcts_search,
)
from axiomforge.trajectory import (
    TrajectoryHeader,
    TrajectoryWriter,
    content_hash,
    read_runs,
)

STEP_FIELDS = (
    "step_id",
    "parent_id",
    "algorithm_phase",
    "domain_text_hash",
    "edit_description",
    "plan_length",
    "score",
)

CASES = [
    (algo, target, seed)
    for algo in ("bfs", "mcts", "genetic", "beam")
    for target in (4, 0)
    for seed in (0, 1)
]


def _steps(path) -> list:
    (run,) = read_runs(path)
    return [tuple(step[f] for f in STEP_FIELDS) for step in run.steps]


# -- built-in scripted oracle through the CLI -----------------------------------


def _evolve(capsys, tmp_path, algo, target, seed):
    path = tmp_path / "run.jsonl"
    code = main(
        [
            "evolve", "corpus:blocksworld", "corpus:blocksworld:restack",
            "--algo", algo, "--target-len", str(target), "--oracle", "scripted",
            "--seed", str(seed), "--json", "--trajectory", str(path),
        ]
    )
    out = capsys.readouterr().out.replace(str(path), "<trajectory>")
    return {"code": code, "stdout": out, "steps": _steps(path)}


@pytest.mark.parametrize("algo,target,seed", CASES)
def test_evolve_cli_is_pinned(capsys, tmp_path, algo, target, seed):
    assert _evolve(capsys, tmp_path, algo, target, seed) == EVOLVE_CLI[(algo, target, seed)]


# -- context-sensitive oracle through the algorithm functions ------------------


BROKEN = "(define (domain blocksworld) (:action"


def _edits(domain) -> list:
    """Rule texts the oracle answers from: one per precondition literal of
    `domain` dropped, the two scripted variants, a syntax error and an
    unlinkable rename."""
    texts = []
    for i, action in enumerate(domain.actions):
        parts = action.precondition.parts if isinstance(action.precondition, And) else ()
        for j in range(len(parts)):
            actions = list(domain.actions)
            actions[i] = replace(action, precondition=And(parts[:j] + parts[j + 1 :]))
            texts.append(print_canonical(replace(domain, actions=tuple(actions))))
    texts += [variants.MULTI_LIFT, BROKEN, variants.MID_EXTRACT]
    texts.append(print_canonical(replace(domain, name="elsewhere")))
    return texts


def _key(*parts) -> int:
    return int(content_hash("\n".join(str(p) for p in parts)), 16)


class ContextOracle(ProposalOracle):
    """Answers are a pure function of the proposal context it is handed."""

    def propose(self, ctx: ProposalContext, k: int) -> list:
        self.calls += 1
        key = _key(
            print_canonical(ctx.domain),
            ctx.baseline_length,
            ctx.failure_summary,
            "|".join(ctx.history),
            k,
        )
        if key % 17 == 0:
            raise NoScriptMatch(ctx.domain.name)
        if key % 13 == 0:
            return []
        pool = _edits(ctx.domain)
        start = key % len(pool)
        return [pool[(start + 5 * i) % len(pool)] for i in range(k + 1)]

    def crossover(self, ctx: ProposalContext, parent_a: str, parent_b: str) -> str:
        self.calls += 1
        return parent_b if _key(parent_a, parent_b, len(ctx.history)) % 2 else parent_a

    def mutate(self, ctx: ProposalContext, candidate: str) -> str:
        self.calls += 1
        pool = _edits(ctx.domain)
        return pool[_key(candidate, len(ctx.history)) % len(pool)]


def _search(tmp_path, algo, target, seed):
    entry = corpus.load("blocksworld")
    domain = parse_domain(entry.domain_text)
    problem = parse_problem(entry.flagship.text)
    evaluator = CandidateEvaluator(domain, problem, corpus.regression_suite("blocksworld"))
    cfg = SearchConfig(
        algorithm=algo,
        target_length=target,
        beam_width=3,
        mcts_iterations=10,
        ga_population=4,
        ga_generations=4,
        max_depth=3,
        proposals_per_expansion=3,
        seed=seed,
    )
    oracle = ContextOracle()
    observed = []
    path = tmp_path / "run.jsonl"
    header = TrajectoryHeader.new(cfg.snapshot(), evaluator.original_text, "", "blocksworld", seed, "")
    with TrajectoryWriter(path, header) as writer:
        run = SearchRun(cfg, oracle, evaluator, writer)
        if algo == "bfs":
            result = bfs_search(run)
        elif algo == "mcts":
            def watch(iteration, root):
                observed.append(
                    (iteration, root.visits,
                     tuple((c.cand.step_id, c.visits, c.total_reward) for c in root.children))
                )
            result = mcts_search(run, observer=watch)
        elif algo == "genetic":
            def watch(generation, population):
                observed.append((generation, tuple(c.step_id for c in population)))
            result = genetic_search(run, observer=watch)
        else:
            def watch(iteration, beam):
                observed.append((iteration, tuple(c.step_id for c in beam)))
            result = beam_search(run, LevenshteinMockOracle(), observer=watch)
    return {
        "success": result.success,
        "best": result.best.step_id,
        "explored": result.explored,
        "oracle_calls": result.oracle_calls,
        "observed": observed,
        "steps": _steps(path),
    }


@pytest.mark.parametrize("algo,target,seed", CASES)
def test_context_oracle_search_is_pinned(tmp_path, algo, target, seed):
    assert _search(tmp_path, algo, target, seed) == CONTEXT_ORACLE[(algo, target, seed)]


EVOLVE_CLI = {
    ('bfs', 4, 0): {
        'code': 0,
        'stdout': 'algorithm: bfs\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 3\noracle-calls: 1\ntrajectory: <trajectory>\n{"algorithm": "bfs", "best_length": 2, "best_score": 8.21, "explored": 3, "oracle_calls": 1, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
        ],
    },
    ('bfs', 4, 1): {
        'code': 0,
        'stdout': 'algorithm: bfs\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 3\noracle-calls: 1\ntrajectory: <trajectory>\n{"algorithm": "bfs", "best_length": 2, "best_score": 8.21, "explored": 3, "oracle_calls": 1, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
        ],
    },
    ('bfs', 0, 0): {
        'code': 1,
        'stdout': 'algorithm: bfs\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 3\ntrajectory: <trajectory>\n{"algorithm": "bfs", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 3, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
            (2, 0, 'bfs-depth-1', '7c2a389bab5b35a7', 'proposal 1 from step 0', 4, 9.510000000000002),
        ],
    },
    ('bfs', 0, 1): {
        'code': 1,
        'stdout': 'algorithm: bfs\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 3\ntrajectory: <trajectory>\n{"algorithm": "bfs", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 3, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
            (2, 0, 'bfs-depth-1', '7c2a389bab5b35a7', 'proposal 1 from step 0', 4, 9.510000000000002),
        ],
    },
    ('mcts', 4, 0): {
        'code': 0,
        'stdout': 'algorithm: mcts\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 3\noracle-calls: 2\ntrajectory: <trajectory>\n{"algorithm": "mcts", "best_length": 2, "best_score": 8.21, "explored": 3, "oracle_calls": 2, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', '804f94046b8b927b', 'expansion 0 of step 0', 2, 8.21),
            (2, 0, 'mcts-expand', '7c2a389bab5b35a7', 'expansion 1 of step 0', 4, 9.510000000000002),
        ],
    },
    ('mcts', 4, 1): {
        'code': 0,
        'stdout': 'algorithm: mcts\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 3\noracle-calls: 2\ntrajectory: <trajectory>\n{"algorithm": "mcts", "best_length": 2, "best_score": 8.21, "explored": 3, "oracle_calls": 2, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', '804f94046b8b927b', 'expansion 0 of step 0', 2, 8.21),
            (2, 0, 'mcts-expand', '7c2a389bab5b35a7', 'expansion 1 of step 0', 4, 9.510000000000002),
        ],
    },
    ('mcts', 0, 0): {
        'code': 1,
        'stdout': 'algorithm: mcts\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 64\ntrajectory: <trajectory>\n{"algorithm": "mcts", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 64, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', '804f94046b8b927b', 'expansion 0 of step 0', 2, 8.21),
            (2, 0, 'mcts-expand', '7c2a389bab5b35a7', 'expansion 1 of step 0', 4, 9.510000000000002),
        ],
    },
    ('mcts', 0, 1): {
        'code': 1,
        'stdout': 'algorithm: mcts\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 64\ntrajectory: <trajectory>\n{"algorithm": "mcts", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 64, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', '804f94046b8b927b', 'expansion 0 of step 0', 2, 8.21),
            (2, 0, 'mcts-expand', '7c2a389bab5b35a7', 'expansion 1 of step 0', 4, 9.510000000000002),
        ],
    },
    ('genetic', 4, 0): {
        'code': 0,
        'stdout': 'algorithm: genetic\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 2\noracle-calls: 1\ntrajectory: <trajectory>\n{"algorithm": "genetic", "best_length": 2, "best_score": 8.21, "explored": 2, "oracle_calls": 1, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '804f94046b8b927b', 'seed proposal 0', 2, 8.21),
        ],
    },
    ('genetic', 4, 1): {
        'code': 0,
        'stdout': 'algorithm: genetic\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 2\noracle-calls: 1\ntrajectory: <trajectory>\n{"algorithm": "genetic", "best_length": 2, "best_score": 8.21, "explored": 2, "oracle_calls": 1, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '804f94046b8b927b', 'seed proposal 0', 2, 8.21),
        ],
    },
    ('genetic', 0, 0): {
        'code': 1,
        'stdout': 'algorithm: genetic\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 103\ntrajectory: <trajectory>\n{"algorithm": "genetic", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 103, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '804f94046b8b927b', 'seed proposal 0', 2, 8.21),
            (2, 0, 'ga-gen-0', '7c2a389bab5b35a7', 'seed proposal 1', 4, 9.510000000000002),
        ],
    },
    ('genetic', 0, 1): {
        'code': 1,
        'stdout': 'algorithm: genetic\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 96\ntrajectory: <trajectory>\n{"algorithm": "genetic", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 96, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '804f94046b8b927b', 'seed proposal 0', 2, 8.21),
            (2, 0, 'ga-gen-0', '7c2a389bab5b35a7', 'seed proposal 1', 4, 9.510000000000002),
        ],
    },
    ('beam', 4, 0): {
        'code': 0,
        'stdout': 'algorithm: beam\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 3\noracle-calls: 1\ntrajectory: <trajectory>\n{"algorithm": "beam", "best_length": 2, "best_score": 8.21, "explored": 3, "oracle_calls": 1, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
            (2, 0, 'beam-iter-1', '7c2a389bab5b35a7', 'proposal 1 from step 0', 4, 9.510000000000002),
        ],
    },
    ('beam', 4, 1): {
        'code': 0,
        'stdout': 'algorithm: beam\nsuccess: true\nbest-length: 2\nbest-score: 8.21\nexplored: 3\noracle-calls: 1\ntrajectory: <trajectory>\n{"algorithm": "beam", "best_length": 2, "best_score": 8.21, "explored": 3, "oracle_calls": 1, "status": "success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
            (2, 0, 'beam-iter-1', '7c2a389bab5b35a7', 'proposal 1 from step 0', 4, 9.510000000000002),
        ],
    },
    ('beam', 0, 0): {
        'code': 1,
        'stdout': 'algorithm: beam\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 7\ntrajectory: <trajectory>\n{"algorithm": "beam", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 7, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
            (2, 0, 'beam-iter-1', '7c2a389bab5b35a7', 'proposal 1 from step 0', 4, 9.510000000000002),
        ],
    },
    ('beam', 0, 1): {
        'code': 1,
        'stdout': 'algorithm: beam\nsuccess: false\nbest-length: 6\nbest-score: 6.27\nexplored: 3\noracle-calls: 7\ntrajectory: <trajectory>\n{"algorithm": "beam", "best_length": 6, "best_score": 6.27, "explored": 3, "oracle_calls": 7, "status": "no-success", "trajectory": "<trajectory>"}\n',
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', '804f94046b8b927b', 'proposal 0 from step 0', 2, 8.21),
            (2, 0, 'beam-iter-1', '7c2a389bab5b35a7', 'proposal 1 from step 0', 4, 9.510000000000002),
        ],
    },
}

CONTEXT_ORACLE = {
    ('bfs', 4, 0): {
        'success': True,
        'best': 2,
        'explored': 4,
        'oracle_calls': 1,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'bfs-depth-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
        ],
    },
    ('bfs', 4, 1): {
        'success': True,
        'best': 2,
        'explored': 4,
        'oracle_calls': 1,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'bfs-depth-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
        ],
    },
    ('bfs', 0, 0): {
        'success': False,
        'best': 3,
        'explored': 28,
        'oracle_calls': 12,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'bfs-depth-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
            (3, 0, 'bfs-depth-1', '9fae7213b52a6175', 'proposal 2 from step 0', 1, 1.4),
            (4, 1, 'bfs-depth-2', 'fd1dd92c8e3ab689', 'proposal 0 from step 1', 6, 6.54),
            (5, 1, 'bfs-depth-2', '1c143a80b3d7092d', 'proposal 1 from step 1', 4, 4.49),
            (6, 2, 'bfs-depth-2', '804f94046b8b927b', 'proposal 0 from step 2', 2, 8.21),
            (7, 2, 'bfs-depth-2', '98ee4595a058443c', 'proposal 1 from step 2', 2, 2.49),
            (8, 2, 'bfs-depth-2', '5e513cb79cba1c7e', 'proposal 2 from step 2', 2, 2.49),
            (9, 3, 'bfs-depth-2', '745aacdda8a612bb', 'proposal 0 from step 3', 1, 1.51),
            (10, 3, 'bfs-depth-2', 'ebf174b20a687bed', 'proposal 1 from step 3', 1, 1.57),
            (11, 3, 'bfs-depth-2', '7c2a389bab5b35a7', 'proposal 2 from step 3', 4, 9.510000000000002),
            (12, 4, 'bfs-depth-3', '23ddb7bcb48c048e', 'proposal 1 from step 4', 3, 3.6700000000000004),
            (13, 4, 'bfs-depth-3', 'b1a9db76aaed410e', 'proposal 2 from step 4', 4, 4.65),
            (14, 5, 'bfs-depth-3', 'de5fef1ad9864c7e', 'proposal 0 from step 5', 4, 4.6000000000000005),
            (15, 5, 'bfs-depth-3', '5a7fe7cc0c3abbd6', 'proposal 1 from step 5', 2, 2.6),
            (16, 5, 'bfs-depth-3', 'cb2d3dcaf97b9d6d', 'proposal 2 from step 5', 3, 3.66),
            (17, 6, 'bfs-depth-3', '57c4c510e13eccab', 'proposal 0 from step 6', 2, 8.32),
            (18, 6, 'bfs-depth-3', 'f54811a03bdb2334', 'proposal 1 from step 6', 2, 8.15),
            (19, 6, 'bfs-depth-3', '8a08271f5644717b', 'proposal 2 from step 6', 2, 8.08),
            (20, 7, 'bfs-depth-3', '106ca3516608974b', 'proposal 1 from step 7', 2, 2.62),
            (21, 8, 'bfs-depth-3', 'a179f8932e2f5582', 'proposal 0 from step 8', 1, 1.62),
            (22, 8, 'bfs-depth-3', 'fb7a85f2641e0703', 'proposal 2 from step 8', 2, 2.6500000000000004),
            (23, 10, 'bfs-depth-3', '5b95842bd8d4eb7e', 'proposal 0 from step 10', 1, 1.68),
            (24, 10, 'bfs-depth-3', '308c5c52d1369b67', 'proposal 1 from step 10', 1, 1.73),
            (25, 11, 'bfs-depth-3', '6bfedb714724f46d', 'proposal 0 from step 11', 4, 9.350000000000001),
            (26, 11, 'bfs-depth-3', 'cded87c193ff840d', 'proposal 1 from step 11', 4, 9.38),
            (27, 11, 'bfs-depth-3', '5ed1417cb95758ff', 'proposal 2 from step 11', 2, 7.619999999999999),
        ],
    },
    ('bfs', 0, 1): {
        'success': False,
        'best': 3,
        'explored': 28,
        'oracle_calls': 12,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'bfs-depth-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'bfs-depth-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
            (3, 0, 'bfs-depth-1', '9fae7213b52a6175', 'proposal 2 from step 0', 1, 1.4),
            (4, 1, 'bfs-depth-2', 'fd1dd92c8e3ab689', 'proposal 0 from step 1', 6, 6.54),
            (5, 1, 'bfs-depth-2', '1c143a80b3d7092d', 'proposal 1 from step 1', 4, 4.49),
            (6, 2, 'bfs-depth-2', '804f94046b8b927b', 'proposal 0 from step 2', 2, 8.21),
            (7, 2, 'bfs-depth-2', '98ee4595a058443c', 'proposal 1 from step 2', 2, 2.49),
            (8, 2, 'bfs-depth-2', '5e513cb79cba1c7e', 'proposal 2 from step 2', 2, 2.49),
            (9, 3, 'bfs-depth-2', '745aacdda8a612bb', 'proposal 0 from step 3', 1, 1.51),
            (10, 3, 'bfs-depth-2', 'ebf174b20a687bed', 'proposal 1 from step 3', 1, 1.57),
            (11, 3, 'bfs-depth-2', '7c2a389bab5b35a7', 'proposal 2 from step 3', 4, 9.510000000000002),
            (12, 4, 'bfs-depth-3', '23ddb7bcb48c048e', 'proposal 1 from step 4', 3, 3.6700000000000004),
            (13, 4, 'bfs-depth-3', 'b1a9db76aaed410e', 'proposal 2 from step 4', 4, 4.65),
            (14, 5, 'bfs-depth-3', 'de5fef1ad9864c7e', 'proposal 0 from step 5', 4, 4.6000000000000005),
            (15, 5, 'bfs-depth-3', '5a7fe7cc0c3abbd6', 'proposal 1 from step 5', 2, 2.6),
            (16, 5, 'bfs-depth-3', 'cb2d3dcaf97b9d6d', 'proposal 2 from step 5', 3, 3.66),
            (17, 6, 'bfs-depth-3', '57c4c510e13eccab', 'proposal 0 from step 6', 2, 8.32),
            (18, 6, 'bfs-depth-3', 'f54811a03bdb2334', 'proposal 1 from step 6', 2, 8.15),
            (19, 6, 'bfs-depth-3', '8a08271f5644717b', 'proposal 2 from step 6', 2, 8.08),
            (20, 7, 'bfs-depth-3', '106ca3516608974b', 'proposal 1 from step 7', 2, 2.62),
            (21, 8, 'bfs-depth-3', 'a179f8932e2f5582', 'proposal 0 from step 8', 1, 1.62),
            (22, 8, 'bfs-depth-3', 'fb7a85f2641e0703', 'proposal 2 from step 8', 2, 2.6500000000000004),
            (23, 10, 'bfs-depth-3', '5b95842bd8d4eb7e', 'proposal 0 from step 10', 1, 1.68),
            (24, 10, 'bfs-depth-3', '308c5c52d1369b67', 'proposal 1 from step 10', 1, 1.73),
            (25, 11, 'bfs-depth-3', '6bfedb714724f46d', 'proposal 0 from step 11', 4, 9.350000000000001),
            (26, 11, 'bfs-depth-3', 'cded87c193ff840d', 'proposal 1 from step 11', 4, 9.38),
            (27, 11, 'bfs-depth-3', '5ed1417cb95758ff', 'proposal 2 from step 11', 2, 7.619999999999999),
        ],
    },
    ('mcts', 4, 0): {
        'success': True,
        'best': 2,
        'explored': 5,
        'oracle_calls': 2,
        'observed': [
            (1, 1, ((1, 1, 0.0), (2, 0, 0.0), (3, 0, 0.0))),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', 'b301d5737b451953', 'expansion 0 of step 0', 6, 6.38),
            (2, 0, 'mcts-expand', '7314d03871e9412c', 'expansion 1 of step 0', 2, 2.38),
            (3, 0, 'mcts-expand', '9fae7213b52a6175', 'expansion 2 of step 0', 1, 1.4),
            (4, 1, 'mcts-rollout', '7cf5e63b2138292e', 'rollout from step 1', 6, 6.49),
        ],
    },
    ('mcts', 4, 1): {
        'success': True,
        'best': 2,
        'explored': 5,
        'oracle_calls': 2,
        'observed': [
            (1, 1, ((1, 1, 0.3333333333333333), (2, 0, 0.0), (3, 0, 0.0))),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', 'b301d5737b451953', 'expansion 0 of step 0', 6, 6.38),
            (2, 0, 'mcts-expand', '7314d03871e9412c', 'expansion 1 of step 0', 2, 2.38),
            (3, 0, 'mcts-expand', '9fae7213b52a6175', 'expansion 2 of step 0', 1, 1.4),
            (4, 1, 'mcts-rollout', '1c143a80b3d7092d', 'rollout from step 1', 4, 4.49),
        ],
    },
    ('mcts', 0, 0): {
        'success': False,
        'best': 3,
        'explored': 28,
        'oracle_calls': 20,
        'observed': [
            (1, 1, ((1, 1, 0.5), (2, 0, 0.0), (3, 0, 0.0))),
            (2, 2, ((1, 1, 0.5), (2, 1, 0.6666666666666666), (3, 0, 0.0))),
            (3, 3, ((1, 1, 0.5), (2, 1, 0.6666666666666666), (3, 1, 0.8333333333333334))),
            (4, 4, ((1, 1, 0.5), (2, 1, 0.6666666666666666), (3, 2, 1.1666666666666667))),
            (5, 5, ((1, 1, 0.5), (2, 2, 1.0), (3, 2, 1.1666666666666667))),
            (6, 6, ((1, 2, 1.1666666666666665), (2, 2, 1.0), (3, 2, 1.1666666666666667))),
            (7, 7, ((1, 3, 1.4999999999999998), (2, 2, 1.0), (3, 2, 1.1666666666666667))),
            (8, 8, ((1, 3, 1.4999999999999998), (2, 2, 1.0), (3, 3, 1.5))),
            (9, 9, ((1, 3, 1.4999999999999998), (2, 3, 1.6666666666666665), (3, 3, 1.5))),
            (10, 10, ((1, 3, 1.4999999999999998), (2, 4, 2.333333333333333), (3, 3, 1.5))),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', 'b301d5737b451953', 'expansion 0 of step 0', 6, 6.38),
            (2, 0, 'mcts-expand', '7314d03871e9412c', 'expansion 1 of step 0', 2, 2.38),
            (3, 0, 'mcts-expand', '9fae7213b52a6175', 'expansion 2 of step 0', 1, 1.4),
            (4, 1, 'mcts-rollout', 'eec583e5316e46f6', 'rollout from step 1', 3, 3.51),
            (5, 2, 'mcts-expand', 'bff4c77410739902', 'expansion 0 of step 2', 2, 2.55),
            (6, 2, 'mcts-expand', '7c2a389bab5b35a7', 'expansion 1 of step 2', 4, 9.510000000000002),
            (7, 2, 'mcts-expand', '7879195d4495524d', 'expansion 2 of step 2', 2, 2.54),
            (8, 5, 'mcts-rollout', 'bf3f7dcf7a6d3eaa', 'rollout from step 5', 2, 2.66),
            (9, 3, 'mcts-expand', '745aacdda8a612bb', 'expansion 0 of step 3', 1, 1.51),
            (10, 3, 'mcts-expand', 'ebf174b20a687bed', 'expansion 1 of step 3', 1, 1.57),
            (11, 9, 'mcts-rollout', 'a2ca36127d467235', 'rollout from step 9', 1, 1.68),
            (12, 10, 'mcts-expand', '3c049f0ebc6c504a', 'expansion 1 of step 10', 1, 1.7),
            (13, 10, 'mcts-expand', 'f3866db817c6a410', 'expansion 2 of step 10', 1, 1.68),
            (14, 1, 'mcts-expand', '7cf5e63b2138292e', 'expansion 0 of step 1', 6, 6.49),
            (15, 1, 'mcts-expand', '820212c1de9b6613', 'expansion 1 of step 1', 2, 2.49),
            (16, 1, 'mcts-expand', '6def1913543772f1', 'expansion 2 of step 1', 1, 1.51),
            (17, 14, 'mcts-rollout', 'a86b9ad370133cb2', 'rollout from step 14', 2, 2.6),
            (18, 15, 'mcts-expand', 'e9b9dcd7e6e916d9', 'expansion 1 of step 15', 2, 2.6500000000000004),
            (19, 15, 'mcts-expand', 'ba16431163a25508', 'expansion 2 of step 15', 2, 2.62),
            (20, 6, 'mcts-rollout', 'fd38403f525779b5', 'rollout from step 6', 4, 9.38),
            (21, 6, 'mcts-expand', 'd94defa2f2e7e609', 'expansion 0 of step 6', 4, 9.350000000000001),
            (22, 6, 'mcts-expand', '7b5e6eb8c6613bc7', 'expansion 1 of step 6', 3, 8.34),
            (23, 6, 'mcts-expand', '1b1c98717d112d1c', 'expansion 2 of step 6', 4, 9.670000000000002),
            (24, 7, 'mcts-expand', '804f94046b8b927b', 'expansion 0 of step 7', 2, 8.21),
            (25, 7, 'mcts-expand', '849f53b8ce9f535e', 'expansion 1 of step 7', 2, 2.6500000000000004),
            (26, 24, 'mcts-rollout', 'ed8bb28365734cb8', 'rollout from step 24', 2, 8.09),
            (27, 5, 'mcts-expand', '8a673a6a8751155b', 'expansion 0 of step 5', 2, 2.66),
        ],
    },
    ('mcts', 0, 1): {
        'success': False,
        'best': 3,
        'explored': 22,
        'oracle_calls': 18,
        'observed': [
            (1, 1, ((1, 1, 0.3333333333333333), (2, 0, 0.0), (3, 0, 0.0))),
            (2, 2, ((1, 1, 0.3333333333333333), (2, 1, 0.6666666666666666), (3, 0, 0.0))),
            (3, 3, ((1, 1, 0.3333333333333333), (2, 1, 0.6666666666666666), (3, 1, 0.8333333333333334))),
            (4, 4, ((1, 1, 0.3333333333333333), (2, 1, 0.6666666666666666), (3, 2, 1.6666666666666667))),
            (5, 5, ((1, 1, 0.3333333333333333), (2, 2, 1.3333333333333333), (3, 2, 1.6666666666666667))),
            (6, 6, ((1, 2, 1.0), (2, 2, 1.3333333333333333), (3, 2, 1.6666666666666667))),
            (7, 7, ((1, 2, 1.0), (2, 2, 1.3333333333333333), (3, 3, 2.5))),
            (8, 8, ((1, 2, 1.0), (2, 3, 2.1666666666666665), (3, 3, 2.5))),
            (9, 9, ((1, 2, 1.0), (2, 3, 2.1666666666666665), (3, 4, 3.3333333333333335))),
            (10, 10, ((1, 3, 1.3333333333333333), (2, 3, 2.1666666666666665), (3, 4, 3.3333333333333335))),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'mcts-expand', 'b301d5737b451953', 'expansion 0 of step 0', 6, 6.38),
            (2, 0, 'mcts-expand', '7314d03871e9412c', 'expansion 1 of step 0', 2, 2.38),
            (3, 0, 'mcts-expand', '9fae7213b52a6175', 'expansion 2 of step 0', 1, 1.4),
            (4, 1, 'mcts-rollout', '7c2a389bab5b35a7', 'rollout from step 1', 4, 9.510000000000002),
            (5, 3, 'mcts-expand', 'b88e90c5a9db7ebc', 'expansion 0 of step 3', 1, 1.56),
            (6, 3, 'mcts-expand', '7f0f23cb1989e1f1', 'expansion 1 of step 3', 1, 1.51),
            (7, 3, 'mcts-expand', '6def1913543772f1', 'expansion 2 of step 3', 1, 1.51),
            (8, 5, 'mcts-rollout', 'a62b230ee57f02dd', 'rollout from step 5', 1, 1.67),
            (9, 6, 'mcts-expand', 'f3866db817c6a410', 'expansion 0 of step 6', 1, 1.68),
            (10, 6, 'mcts-expand', 'e740bc03f04392c4', 'expansion 2 of step 6', 1, 1.67),
            (11, 1, 'mcts-expand', 'eec583e5316e46f6', 'expansion 1 of step 1', 3, 3.51),
            (12, 1, 'mcts-expand', '804f94046b8b927b', 'expansion 2 of step 1', 2, 8.21),
            (13, 7, 'mcts-expand', '2374e18ddef20cb2', 'expansion 0 of step 7', 1, 1.62),
            (14, 7, 'mcts-expand', 'e252704fd87923e7', 'expansion 1 of step 7', 1, 1.68),
            (15, 7, 'mcts-expand', '993a51cd1c1739ba', 'expansion 2 of step 7', 1, 1.67),
            (16, 13, 'mcts-rollout', '7fd2305f19f01b6c', 'rollout from step 13', 1, 1.75),
            (17, 2, 'mcts-rollout', '745aacdda8a612bb', 'rollout from step 2', 1, 1.51),
            (18, 5, 'mcts-expand', '9846bc6f691cc19f', 'expansion 2 of step 5', 1, 1.7),
            (19, 11, 'mcts-expand', '23ddb7bcb48c048e', 'expansion 1 of step 11', 3, 3.6700000000000004),
            (20, 11, 'mcts-expand', '8f8e8fc73eb2260d', 'expansion 2 of step 11', 3, 3.62),
            (21, 4, 'mcts-rollout', '3f912ae6428504ed', 'rollout from step 4', 4, 9.47),
        ],
    },
    ('genetic', 4, 0): {
        'success': True,
        'best': 1,
        'explored': 2,
        'oracle_calls': 1,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '30850b9e8ce3941e', 'seed proposal 0', 4, 4.38),
        ],
    },
    ('genetic', 4, 1): {
        'success': True,
        'best': 1,
        'explored': 2,
        'oracle_calls': 1,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '30850b9e8ce3941e', 'seed proposal 0', 4, 4.38),
        ],
    },
    ('genetic', 0, 0): {
        'success': False,
        'best': 5,
        'explored': 6,
        'oracle_calls': 22,
        'observed': [
            (1, (1, 0, 0, 2)),
            (2, (1, 1, 0, 2)),
            (3, (1, 1, 0, 2)),
            (4, (5, 1, 1, 1)),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '30850b9e8ce3941e', 'seed proposal 0', 4, 4.38),
            (2, 0, 'ga-gen-0', '5a13eae8d2e654c0', 'seed proposal 1', 6, 6.38),
            (3, 0, 'ga-gen-0', '40a13338b6858fef', 'seed proposal 2', 6, 6.43),
            (4, 1, 'ga-gen-3', '804f94046b8b927b', 'offspring 0 of generation 3', 2, 8.21),
            (5, 1, 'ga-gen-4', '554c925f0fd4ad84', 'offspring 0 of generation 4', 3, 3.51),
        ],
    },
    ('genetic', 0, 1): {
        'success': False,
        'best': 1,
        'explored': 5,
        'oracle_calls': 19,
        'observed': [
            (1, (1, 1, 1, 2)),
            (2, (1, 1, 1, 1)),
            (3, (1, 1, 1, 1)),
            (4, (1, 1, 1, 1)),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'ga-gen-0', '30850b9e8ce3941e', 'seed proposal 0', 4, 4.38),
            (2, 0, 'ga-gen-0', '5a13eae8d2e654c0', 'seed proposal 1', 6, 6.38),
            (3, 0, 'ga-gen-0', '40a13338b6858fef', 'seed proposal 2', 6, 6.43),
            (4, 2, 'ga-gen-1', '804f94046b8b927b', 'offspring 3 of generation 1', 2, 8.21),
        ],
    },
    ('beam', 4, 0): {
        'success': True,
        'best': 3,
        'explored': 4,
        'oracle_calls': 1,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'beam-iter-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
            (3, 0, 'beam-iter-1', '9fae7213b52a6175', 'proposal 2 from step 0', 1, 1.4),
        ],
    },
    ('beam', 4, 1): {
        'success': True,
        'best': 3,
        'explored': 4,
        'oracle_calls': 1,
        'observed': [
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'beam-iter-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
            (3, 0, 'beam-iter-1', '9fae7213b52a6175', 'proposal 2 from step 0', 1, 1.4),
        ],
    },
    ('beam', 0, 0): {
        'success': False,
        'best': 3,
        'explored': 17,
        'oracle_calls': 7,
        'observed': [
            (1, (3, 2, 0)),
            (2, (3, 6, 7)),
            (3, (3, 6, 14)),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'beam-iter-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
            (3, 0, 'beam-iter-1', '9fae7213b52a6175', 'proposal 2 from step 0', 1, 1.4),
            (4, 3, 'beam-iter-2', '804f94046b8b927b', 'proposal 0 from step 3', 2, 8.21),
            (5, 3, 'beam-iter-2', 'f856859bd77a03ad', 'proposal 1 from step 3', 1, 1.54),
            (6, 3, 'beam-iter-2', 'a4337c3f78cfb2d5', 'proposal 2 from step 3', 1, 1.51),
            (7, 2, 'beam-iter-2', '745aacdda8a612bb', 'proposal 0 from step 2', 1, 1.51),
            (8, 2, 'beam-iter-2', '9a089ab399281aaa', 'proposal 1 from step 2', 2, 2.51),
            (9, 2, 'beam-iter-2', '820212c1de9b6613', 'proposal 2 from step 2', 2, 2.49),
            (10, 0, 'beam-iter-2', '3aeeddc75289cdac', 'proposal 0 from step 0', 6, 6.41),
            (11, 0, 'beam-iter-2', '9304b7d0418b7912', 'proposal 1 from step 0', 4, 4.4399999999999995),
            (12, 0, 'beam-iter-2', '7c2a389bab5b35a7', 'proposal 2 from step 0', 4, 9.510000000000002),
            (13, 3, 'beam-iter-3', 'b88e90c5a9db7ebc', 'proposal 0 from step 3', 1, 1.56),
            (14, 3, 'beam-iter-3', '7f0f23cb1989e1f1', 'proposal 1 from step 3', 1, 1.51),
            (15, 6, 'beam-iter-3', '5b95842bd8d4eb7e', 'proposal 0 from step 6', 1, 1.68),
            (16, 6, 'beam-iter-3', '72914b963af881c1', 'proposal 1 from step 6', 1, 1.67),
        ],
    },
    ('beam', 0, 1): {
        'success': False,
        'best': 3,
        'explored': 17,
        'oracle_calls': 7,
        'observed': [
            (1, (3, 2, 0)),
            (2, (3, 6, 7)),
            (3, (3, 6, 14)),
        ],
        'steps': [
            (0, None, 'root', '3f563516aa96be23', 'original', 6, 6.27),
            (1, 0, 'beam-iter-1', 'b301d5737b451953', 'proposal 0 from step 0', 6, 6.38),
            (2, 0, 'beam-iter-1', '7314d03871e9412c', 'proposal 1 from step 0', 2, 2.38),
            (3, 0, 'beam-iter-1', '9fae7213b52a6175', 'proposal 2 from step 0', 1, 1.4),
            (4, 3, 'beam-iter-2', '804f94046b8b927b', 'proposal 0 from step 3', 2, 8.21),
            (5, 3, 'beam-iter-2', 'f856859bd77a03ad', 'proposal 1 from step 3', 1, 1.54),
            (6, 3, 'beam-iter-2', 'a4337c3f78cfb2d5', 'proposal 2 from step 3', 1, 1.51),
            (7, 2, 'beam-iter-2', '745aacdda8a612bb', 'proposal 0 from step 2', 1, 1.51),
            (8, 2, 'beam-iter-2', '9a089ab399281aaa', 'proposal 1 from step 2', 2, 2.51),
            (9, 2, 'beam-iter-2', '820212c1de9b6613', 'proposal 2 from step 2', 2, 2.49),
            (10, 0, 'beam-iter-2', '3aeeddc75289cdac', 'proposal 0 from step 0', 6, 6.41),
            (11, 0, 'beam-iter-2', '9304b7d0418b7912', 'proposal 1 from step 0', 4, 4.4399999999999995),
            (12, 0, 'beam-iter-2', '7c2a389bab5b35a7', 'proposal 2 from step 0', 4, 9.510000000000002),
            (13, 3, 'beam-iter-3', 'b88e90c5a9db7ebc', 'proposal 0 from step 3', 1, 1.56),
            (14, 3, 'beam-iter-3', '7f0f23cb1989e1f1', 'proposal 1 from step 3', 1, 1.51),
            (15, 6, 'beam-iter-3', '5b95842bd8d4eb7e', 'proposal 0 from step 6', 1, 1.68),
            (16, 6, 'beam-iter-3', '72914b963af881c1', 'proposal 1 from step 6', 1, 1.67),
        ],
    },
}

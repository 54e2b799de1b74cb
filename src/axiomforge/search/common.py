"""The driver every search algorithm shares: evaluate, record, track the best.

`run_search` opens a `SearchRun` and hands it to an algorithm, which
evaluates the root through it and then only decides which nodes to expand
and which candidates to keep; every evaluated candidate passes through
`admit`, which records it once and keeps the best score seen. Oracle text
becomes a candidate only through the evaluator's `read`, for proposals and
genetic children alike.
"""

from __future__ import annotations

from ..proposer import NoScriptMatch, ProposalContext, ProposalOracle, filter_linkable
from ..trajectory import TrajectoryStep, TrajectoryWriter, content_hash
from .candidate import CandidateEvaluator, EditCandidate, Provenance
from .config import SearchConfig, SearchResult

HISTORY_WINDOW = 8


def summarize(cand: EditCandidate) -> str:
    length = cand.plan_length
    outcome = f"plan length {length}" if length is not None else "goal unreachable"
    if not cand.regression_ok:
        outcome += ", breaks a previously solvable scenario"
    return f"{cand.provenance.description}: {outcome}, score {cand.score:g}"


def propose_domains(oracle: ProposalOracle, ctx: ProposalContext, k: int, read) -> list:
    """Ask the oracle for k edits, read by an evaluator's `read`; unlinkable ones drop."""
    try:
        texts = oracle.propose(ctx, k)
    except NoScriptMatch:
        return []
    return filter_linkable(texts, read, k)


class SearchRun:
    """Everything one search run owns: its config, oracle and evaluator
    (which reads oracle text as well as scoring it), the recorded steps (a
    step's id is its index in `steps`, and `writer`, when given, gets each
    step as it is recorded), the best candidate so far, and the oracle's
    call count at the start of the run. Each step's `summarize` line is
    formatted once, when the step is recorded, for the history of every
    later proposal context. The evaluator must be fresh: it keeps each
    candidate with the step id a run gave it, so a second run over it
    would record nothing."""

    def __init__(
        self,
        cfg: SearchConfig,
        oracle: ProposalOracle,
        evaluator: CandidateEvaluator,
        writer: TrajectoryWriter | None = None,
    ):
        if evaluator.evaluations:
            raise ValueError("an evaluator serves one run")
        self.cfg = cfg
        self.oracle = oracle
        self.evaluator = evaluator
        self.writer = writer
        self.steps: list = []  # recorded candidates, in step order
        self._summaries: list = []  # summarize(step), in step order
        self.best: EditCandidate | None = None
        self._calls0 = oracle.calls

    def root(self) -> EditCandidate:
        return self.admit(self.evaluator.evaluate_root(), "root")

    def admit(self, cand: EditCandidate, phase: str) -> EditCandidate:
        """Record a candidate the first time it is seen; track the best."""
        if cand.step_id is None:
            cand.step_id = len(self.steps)
            self.steps.append(cand)
            self._summaries.append(summarize(cand))
            if self.writer is not None:
                self.writer.record(
                    TrajectoryStep(
                        step_id=cand.step_id,
                        parent_id=cand.provenance.parent_id,
                        algorithm_phase=phase,
                        domain_text_hash=content_hash(cand.canonical_text),
                        domain_text=cand.canonical_text,
                        edit_description=cand.provenance.description,
                        plan_length=cand.plan_length,
                        regression_ok=cand.regression_ok,
                        score=cand.score,
                        lev_distance=cand.lev_distance,
                        oracle_round=cand.provenance.oracle_round,
                    )
                )
        if self.best is None or cand.score < self.best.score:
            self.best = cand
        return cand

    def reached(self, cand: EditCandidate) -> bool:
        return cand.meets_target(self.cfg.target_length)

    def context(self, node: EditCandidate) -> ProposalContext:
        """The proposal context for editing `node`, with recent history."""
        length = node.plan_length
        target = self.cfg.target_length
        if length is None:
            failure = "the goal is unreachable under the current rules"
        elif length > target:
            failure = f"best plan is {length} steps, which misses the {target}-step target"
        else:
            failure = "regression scenarios fail under the current rules"
        return ProposalContext(
            domain=node.domain,
            problem=self.evaluator.problem,
            baseline_length=length,
            target_length=target,
            failure_summary=failure,
            history=tuple(self._summaries[-HISTORY_WINDOW:]),
        )

    def propose(self, node: EditCandidate, k: int | None = None) -> list:
        """Up to k (default: proposals per expansion) linkable edits of node,
        as (domain, canonical text) pairs."""
        if k is None:
            k = self.cfg.proposals_per_expansion
        return propose_domains(self.oracle, self.context(node), k, self.evaluator.read)

    def evaluate(self, domain, text: str, provenance: Provenance, phase: str) -> EditCandidate:
        return self.admit(self.evaluator.evaluate(domain, text, provenance), phase)

    def evaluate_batch(self, batch: list, phase: str):
        """Evaluate (domain, text, provenance) triples together, then admit
        them one at a time as the caller iterates, so it can stop mid-batch."""
        for cand in self.evaluator.evaluate_many(batch):
            yield self.admit(cand, phase)

    def expand(self, node: EditCandidate, oracle_round: int, phase: str, describe: str):
        """Propose edits of node and yield them evaluated and admitted, in
        proposal order. `describe` is formatted with the proposal index `i`
        and the node's step id `step`."""
        step = node.step_id
        batch = [
            (domain, text, Provenance(step, oracle_round, describe.format(i=i, step=step)))
            for i, (domain, text) in enumerate(self.propose(node))
        ]
        return self.evaluate_batch(batch, phase)

    def result(self, found: EditCandidate | None = None) -> SearchResult:
        """A success with `found`, or else a failure reporting the best."""
        return SearchResult(
            best=found if found is not None else self.best,
            success=found is not None,
            explored=self.evaluator.evaluations,
            oracle_calls=self.oracle.calls - self._calls0,
        )

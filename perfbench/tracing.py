"""In-memory span tracing of axiomforge's public functions, from outside.

`Tracer.install` replaces each traced function at every module attribute
that holds it (for example `axiomforge.search.candidate.ground` as well as
`axiomforge.planner.ground`), because callers look functions up where they
imported them. Methods are replaced on their class. `uninstall` restores
the originals, so the untraced and traced phases run the same code apart
from the wrappers. No file of the program is changed.

A span is one call: name, start, end and the index of the span it was
called from. Self time is a span's duration minus the time its child spans
cover; spans on one thread nest, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import axiomforge.corpus
import axiomforge.distance
import axiomforge.planner
import axiomforge.pddl.parser
import axiomforge.pddl.printer
import axiomforge.proposer.extract
import axiomforge.proposer.http
import axiomforge.proposer.oracles
import axiomforge.search.candidate
import axiomforge.trajectory

@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _patched: list = field(default_factory=list)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, fn, observe: Callable | None):
        """`observe(tracer, args, result, parent_span_name)` runs after each call."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, parent)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start
            if observe is not None:
                observe(self, args, result, spans[parent].name if parent is not None else None)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, fn, observe in _function_targets():
            wrapper = self._wrap(name, fn, observe)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("axiomforge"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        for name, cls, method, observe in _method_targets():
            fn = cls.__dict__[method]
            self._patched.append((cls, method, fn))
            setattr(cls, method, self._wrap(name, fn, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict:
        """name -> (calls, total self seconds) over every recorded span."""
        totals: dict = {}
        for span in self.spans:
            calls, self_s = totals.get(span.name, (0, 0.0))
            totals[span.name] = (calls + 1, self_s + span.self_s)
        return totals


# -- what is traced ---------------------------------------------------------


def _ground(tracer, args, result, parent):
    tracer.add("planner.ground.actions", len(result.actions))


def _solve(tracer, args, result, parent):
    if isinstance(result, axiomforge.planner.Plan):
        tracer.add("planner.solve.plan_steps", result.length)
    elif isinstance(result, axiomforge.planner.ResourceExceeded):
        tracer.add("planner.solve.resource_exceeded")


def _levenshtein(tracer, args, result, parent):
    tracer.add("distance.levenshtein.chars", len(args[0]) + len(args[1]))


def _hybrid_rank(tracer, args, result, parent):
    tracer.add("distance.oracle_queries", result.oracle_queries_used)


def _extract(tracer, args, result, parent):
    tracer.add("proposer.extract.blocks", len(result.domains) + result.dropped)
    tracer.add("proposer.extract.dropped", result.dropped)


def _filter_linkable(tracer, args, result, parent):
    tracer.add("proposer.linkable", len(result))


def _evaluate(tracer, args, result, parent):
    if parent != "search.evaluate_many":
        tracer.add("search.lookups")


def _evaluate_many(tracer, args, result, parent):
    tracer.add("search.lookups", len(args[1]))


def _function_targets():
    return [
        ("corpus.regression_suite", axiomforge.corpus.regression_suite, None),
        ("pddl.parse_domain", axiomforge.pddl.parser.parse_domain, None),
        ("pddl.link", axiomforge.pddl.parser.link, None),
        ("pddl.print_canonical", axiomforge.pddl.printer.print_canonical, None),
        ("planner.ground", axiomforge.planner.ground, _ground),
        ("planner.solve", axiomforge.planner.solve, _solve),
        ("distance.levenshtein", axiomforge.distance.levenshtein, _levenshtein),
        ("distance.hybrid_rank", axiomforge.distance.hybrid_rank, _hybrid_rank),
        ("proposer.extract", axiomforge.proposer.extract.extract_candidates, _extract),
        ("proposer.filter_linkable", axiomforge.proposer.extract.filter_linkable, _filter_linkable),
    ]


def _oracle_classes(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _oracle_classes(cls)


def _method_targets():
    candidate = axiomforge.search.candidate.CandidateEvaluator
    targets = [
        ("search.evaluate", candidate, "evaluate", _evaluate),
        ("search.evaluate_many", candidate, "evaluate_many", _evaluate_many),
        ("trajectory.record", axiomforge.trajectory.TrajectoryWriter, "record", None),
        ("proposer.http.complete", axiomforge.proposer.http.HttpChatClient, "complete", None),
    ]
    for cls in _oracle_classes(axiomforge.proposer.oracles.ProposalOracle):
        if "propose" in cls.__dict__:
            targets.append(("proposer.propose", cls, "propose", None))
    return targets

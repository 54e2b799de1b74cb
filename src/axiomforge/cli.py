"""Operator surface: parse, plan, validate, evolve, rank, corpus, export.

Each command prints its human-readable lines and returns (exit code, JSON
payload); a failure is raised, and `main` alone reports it as an exit code,
a stderr line and a payload.

Exit codes: 0 success, 1 domain or logic failure (diagnostics, grounding
explosion, unsolvable, resource limit, no search success, invalid plan,
malformed trajectory), 2 usage error (bad flags, unknown corpus entry),
3 external failure (oracle transport, credentials, unreadable files).

With --json, every exit that reaches `main` ends with one JSON object as the
final stdout line. Its `status` is the outcome of a command that ran (ok,
plan, unsolvable, resource-exceeded, valid, invalid, success, no-success)
or the failure it raised (error, grounding-explosion, oracle-failure,
malformed, unknown-corpus-entry, io-failure). Usage errors that argparse
reports exit 2 before --json is read, so they print no JSON line.

Inputs named `corpus:NAME` load the embedded domain NAME;
`corpus:NAME:PROBLEM` loads one of its problem instances, and a problem
named `corpus:NAME` is the flagship. Any other `corpus:` shape is an
unknown corpus entry. `validate` reads
each plan line as PDDL, so case, runs of blanks and a trailing `;` comment
do not matter.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, corpus
from .pddl import (
    PddlError,
    link,
    parse_domain,
    parse_problem,
    print_canonical,
)
from .pddl.reader import SList, read_one
from .planner import (
    GroundingExplosion,
    Plan,
    SearchLimits,
    Unsolvable,
    ground,
    solve,
    validate_plan,
)

# Only what every command needs is imported here. A command imports the
# rest of what it runs, so `parse`, `plan`, `validate` and `corpus` load
# neither search, the proposer, distances nor trajectories.

EXIT_OK = 0
EXIT_LOGIC = 1
EXIT_USAGE = 2
EXIT_EXTERNAL = 3


def _read_file(path: str) -> str:
    """The text of a UTF-8 file; one that does not decode is unreadable,
    as a missing one is."""
    from pathlib import Path

    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise OSError(f"{path}: not valid UTF-8") from None


def _read_text(spec: str, kind: str) -> str:
    if spec.startswith("corpus:"):
        parts = spec.split(":")
        if len(parts) > (2 if kind == "domain" else 3):
            raise corpus.UnknownDomain(spec[len("corpus:"):])
        entry = corpus.load(parts[1])
        if kind == "domain":
            return entry.domain_text
        name = parts[2] if len(parts) > 2 else entry.flagship.name
        return entry.problem(name).text
    return _read_file(spec)


def _limits(args) -> SearchLimits:
    return SearchLimits(
        max_expanded_states=args.max_states,
        max_plan_length=args.max_len,
        wall_budget_ms=args.budget_ms,
    )


# -- commands -----------------------------------------------------------------


def _cmd_parse(args) -> tuple[int, dict]:
    domain = parse_domain(_read_text(args.domain, "domain"))
    sys.stdout.write(print_canonical(domain))
    return EXIT_OK, {"status": "ok", "name": domain.name,
                     "actions": len(domain.actions), "predicates": len(domain.predicates)}


def _load_task(args):
    domain = parse_domain(_read_text(args.domain, "domain"))
    problem = parse_problem(_read_text(args.problem, "problem"))
    return ground(link(domain, problem))


def _cmd_plan(args) -> tuple[int, dict]:
    result = solve(_load_task(args), _limits(args))
    if isinstance(result, Plan):
        for step in result.steps:
            print(str(step))
        print(f"length: {result.length}")
        return EXIT_OK, {"status": "plan", "length": result.length,
                         "steps": [str(s) for s in result.steps]}
    if isinstance(result, Unsolvable):
        print("unsolvable")
        return EXIT_LOGIC, {"status": "unsolvable"}
    print(f"resource-exceeded: {result.reason}")
    return EXIT_LOGIC, {"status": "resource-exceeded", "reason": result.reason}


def _step_key(line: str) -> tuple | None:
    """The atoms of a plan line read as PDDL, or None unless it reads as
    one flat list."""
    try:
        items = read_one(line).items
    except PddlError:
        return None
    if any(isinstance(item, SList) for item in items):
        return None
    return tuple(item.text for item in items)


def _cmd_validate(args) -> tuple[int, dict]:
    task = _load_task(args)
    by_key = {(a.name, *a.args): a for a in task.actions}
    steps = []
    for raw in _read_file(args.plan).splitlines():
        line = raw.strip()
        if not line or line.startswith(";") or line.startswith("length:"):
            continue
        action = by_key.get(_step_key(line))
        if action is None:
            print(f"invalid at step {len(steps)}: unknown action {line}")
            return EXIT_LOGIC, {"status": "invalid", "failed_at": len(steps)}
        steps.append(action)
    ok, failed_at = validate_plan(task, Plan(tuple(steps)))
    if ok:
        print("valid")
        return EXIT_OK, {"status": "valid", "length": len(steps)}
    print(f"invalid at step {failed_at}")
    return EXIT_LOGIC, {"status": "invalid", "failed_at": failed_at}


def _cmd_evolve(args) -> tuple[int, dict]:
    from .search import ObjectiveWeights, SearchConfig, run_search

    domain = parse_domain(_read_text(args.domain, "domain"))
    problem = parse_problem(_read_text(args.problem, "problem"))

    weights = ObjectiveWeights(alpha=args.alpha, lam=args.lam)
    cfg = SearchConfig(
        algorithm=args.algo,
        target_length=args.target_len,
        beam_width=args.beam_width,
        mcts_iterations=args.mcts_iterations,
        mcts_exploration_c=args.mcts_c,
        ga_population=args.ga_population,
        ga_generations=args.ga_generations,
        ga_mutation_rate=args.ga_mutation_rate,
        max_depth=args.max_depth,
        proposals_per_expansion=args.proposals,
        seed=args.seed,
        weights=weights,
    )
    if args.oracle == "scripted":
        from .proposer import builtin_script

        oracle = builtin_script()
        distance_oracle = None  # run_search uses the Levenshtein mock
    else:
        from .proposer import HttpDistanceOracle, HttpProposalOracle, OracleClientConfig

        cfg_http = OracleClientConfig.from_env(samples=args.samples)
        oracle = HttpProposalOracle(cfg_http)
        distance_oracle = HttpDistanceOracle(cfg_http)

    regression = (
        corpus.regression_suite(domain.name)
        if domain.name in corpus.CORPUS_NAMES
        else []
    )
    result = run_search(
        cfg,
        domain,
        problem,
        regression,
        oracle,
        distance_oracle=distance_oracle,
        limits=_limits(args),
        trajectory_path=args.trajectory,
    )

    best = result.best
    print(f"algorithm: {cfg.algorithm}")
    print(f"success: {'true' if result.success else 'false'}")
    print(f"best-length: {best.plan_length if best is not None else 'none'}")
    print(f"best-score: {best.score:g}" if best is not None else "best-score: none")
    print(f"explored: {result.explored}")
    print(f"oracle-calls: {result.oracle_calls}")
    if args.trajectory:
        print(f"trajectory: {args.trajectory}")
    return EXIT_OK if result.success else EXIT_LOGIC, {
        "status": "success" if result.success else "no-success",
        "algorithm": cfg.algorithm,
        "best_length": best.plan_length if best is not None else None,
        "best_score": best.score if best is not None else None,
        "explored": result.explored,
        "oracle_calls": result.oracle_calls,
        "trajectory": args.trajectory,
    }


def _canonical_of(spec: str) -> str:
    return print_canonical(parse_domain(_read_text(spec, "domain")))


def _cmd_rank(args) -> tuple[int, dict]:
    from .distance import LevenshteinMockOracle, hybrid_rank, levenshtein, semantic_rank

    reference = _canonical_of(args.reference)
    by_text: dict = {}
    for path in args.candidates:  # paths with one text rank together, in order
        by_text.setdefault(_canonical_of(path), []).append(path)
    unique_texts = list(by_text)

    queries = 0
    if args.metric == "lev":
        items = sorted(unique_texts, key=lambda text: (levenshtein(reference, text), text))
    else:
        if args.oracle == "mock":
            oracle = LevenshteinMockOracle()
        else:
            from .proposer import HttpDistanceOracle, OracleClientConfig

            oracle = HttpDistanceOracle(OracleClientConfig.from_env(samples=args.samples))
        if args.metric == "semantic":
            ranked = semantic_rank(reference, unique_texts, oracle)
        else:
            keep = min(args.keep, len(unique_texts))
            ranked = hybrid_rank(reference, unique_texts, keep, oracle)
        queries = ranked.oracle_queries_used
        items = ranked.items
    ordered = [path for text in items for path in by_text[text]]

    for i, path in enumerate(ordered, start=1):
        print(f"{i}\t{path}")
    return EXIT_OK, {"status": "ok", "ranking": ordered, "oracle_queries": queries}


def _cmd_corpus(args) -> tuple[int, dict]:
    if args.corpus_cmd == "list":
        for name in corpus.CORPUS_NAMES:
            print(name)
        return EXIT_OK, {"status": "ok", "names": list(corpus.CORPUS_NAMES)}
    from pathlib import Path

    entry = corpus.load(args.name)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    domain_path = out / f"{entry.name}.domain.pddl"
    domain_path.write_text(entry.domain_text, encoding="utf-8")
    written.append(str(domain_path))
    for prob in entry.problems:
        path = out / f"{entry.name}.{prob.name}.problem.pddl"
        path.write_text(prob.text, encoding="utf-8")
        written.append(str(path))
    for path in written:
        print(path)
    return EXIT_OK, {"status": "ok", "files": written}


def _cmd_export(args) -> tuple[int, dict]:
    from .trajectory import export as export_runs

    count = export_runs(args.runs, args.out, args.format)
    print(f"exported: {count}")
    return EXIT_OK, {"status": "ok", "runs": count, "out": args.out}


# -- argument wiring ----------------------------------------------------------


def _in_range(kind, low, high=math.inf):
    """An argparse type: a finite `kind` value from low to high."""
    bound = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not -math.inf < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return convert


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-states", type=_in_range(int, 1), default=SearchLimits.max_expanded_states,
                   help="cap on expanded states per solve")
    p.add_argument("--max-len", type=_in_range(int, 1), default=SearchLimits.max_plan_length,
                   help="cap on plan length")
    p.add_argument("--budget-ms", type=_in_range(int, 1), default=SearchLimits.wall_budget_ms,
                   help="wall budget per solve")


class _Parser(argparse.ArgumentParser):
    """A subcommand parser that can add its arguments when it first parses.

    `evolve` and `rank` read their flag defaults from search and proposer
    dataclasses, so they add their arguments only once they are the chosen
    command, and no other command loads those packages."""

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _add_evolve_arguments(p: argparse.ArgumentParser) -> None:
    from .proposer import OracleClientConfig
    from .search import ALGORITHMS, ObjectiveWeights, SearchConfig

    p.add_argument("domain")
    p.add_argument("problem")
    p.add_argument("--algo", choices=ALGORITHMS, default="beam")
    p.add_argument("--target-len", type=_in_range(int, 0), required=True)
    p.add_argument("--beam-width", type=_in_range(int, 1), default=SearchConfig.beam_width)
    p.add_argument("--seed", type=int, default=SearchConfig.seed)
    p.add_argument("--oracle", choices=("http", "scripted"), default="http")
    p.add_argument("--trajectory", help="write the run record to this jsonl file")
    p.add_argument("--alpha", type=_in_range(float, 0), default=ObjectiveWeights.alpha,
                   help="distance weight")
    p.add_argument("--lambda", dest="lam", type=_in_range(float, 0), default=ObjectiveWeights.lam,
                   help="compactness weight")
    p.add_argument("--samples", type=_in_range(int, 1), default=OracleClientConfig.samples,
                   help="oracle decodes per request")
    p.add_argument("--max-depth", type=_in_range(int, 1), default=SearchConfig.max_depth)
    p.add_argument("--proposals", type=_in_range(int, 1), default=SearchConfig.proposals_per_expansion,
                   help="proposals per expansion")
    p.add_argument("--mcts-iterations", type=_in_range(int, 1), default=SearchConfig.mcts_iterations)
    p.add_argument("--mcts-c", type=_in_range(float, 0), default=SearchConfig.mcts_exploration_c)
    p.add_argument("--ga-population", type=_in_range(int, 2), default=SearchConfig.ga_population)
    p.add_argument("--ga-generations", type=_in_range(int, 0), default=SearchConfig.ga_generations)
    p.add_argument("--ga-mutation-rate", type=_in_range(float, 0, 1),
                   default=SearchConfig.ga_mutation_rate)
    _add_limit_flags(p)
    p.add_argument("--json", action="store_true")


def _add_rank_arguments(p: argparse.ArgumentParser) -> None:
    from .proposer import OracleClientConfig

    p.add_argument("reference")
    p.add_argument("candidates", nargs="+")
    p.add_argument("--metric", choices=("lev", "semantic", "hybrid"), default="lev")
    p.add_argument("--keep", type=_in_range(int, 1), default=16, help="hybrid pre-filter survivors")
    p.add_argument("--oracle", choices=("http", "mock"), default="http")
    p.add_argument(
        "--samples", type=_in_range(int, 1), default=OracleClientConfig.samples,
        help="oracle votes per comparison, asked for in one request",
    )
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axiomforge",
        description="Evolve PDDL game rules with planner-verified search.",
    )
    parser.add_argument("--version", action="version", version=f"axiomforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="parse a domain and print its canonical text")
    p.add_argument("domain")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("plan", help="solve a task and print the optimal plan")
    p.add_argument("domain")
    p.add_argument("problem")
    _add_limit_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("validate", help="check a plan file against a task")
    p.add_argument("domain")
    p.add_argument("problem")
    p.add_argument("plan", help="file with one ground action per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("evolve", help="search for rule edits reaching a target length",
                       add_arguments=_add_evolve_arguments)
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("rank", help="order candidate domains by closeness to a reference",
                       add_arguments=_add_rank_arguments)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("corpus", help="inspect or dump the embedded game corpus")
    corpus_sub = p.add_subparsers(dest="corpus_cmd", required=True)
    pl = corpus_sub.add_parser("list", help="list embedded domain names")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(fn=_cmd_corpus)
    pd = corpus_sub.add_parser("dump", help="write a corpus entry to files")
    pd.add_argument("name")
    pd.add_argument("--out", required=True)
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("export", help="repackage trajectory files")
    p.add_argument("runs", nargs="+")
    p.add_argument("--format", choices=("jsonl", "csv-summary"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_export)

    return parser


def _raised(module: str, name: str) -> tuple:
    """The exception class `name` of this package's `module`, as a 1-tuple,
    or () while that module is not loaded: then nothing has raised it, and
    `main` need not load it to catch it."""
    cls = getattr(sys.modules.get(f"{__package__}.{module}"), name, None)
    return () if cls is None else (cls,)


def main(argv=None) -> int:
    """Run one command. A failure it raises is reported here: a stderr line,
    an exit code and a payload; with --json the payload ends stdout."""
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.fn(args)
    except PddlError as err:
        for d in err.diagnostics:
            print(d, file=sys.stderr)
        code, payload = EXIT_LOGIC, {"status": "error", "diagnostics": [
            {"code": d.code, "message": d.message, "line": d.line, "col": d.col}
            for d in err.diagnostics
        ]}
    except GroundingExplosion as err:
        print(f"grounding-explosion: {err}", file=sys.stderr)
        code, payload = EXIT_LOGIC, {"status": "grounding-explosion"}
    except (*_raised("distance", "OracleUnavailable"), *_raised("proposer.http", "AuthError")) as err:
        print(f"oracle failure: {err}", file=sys.stderr)
        code, payload = EXIT_EXTERNAL, {"status": "oracle-failure", "error": str(err)}
    except _raised("trajectory", "MalformedTrajectory") as err:
        print(err, file=sys.stderr)
        code, payload = EXIT_LOGIC, {"status": "malformed", "error": str(err)}
    except corpus.UnknownDomain as err:
        print(f"unknown corpus entry: {err}", file=sys.stderr)
        code, payload = EXIT_USAGE, {"status": "unknown-corpus-entry", "error": str(err)}
    except OSError as err:
        print(f"io failure: {err}", file=sys.stderr)
        code, payload = EXIT_EXTERNAL, {"status": "io-failure", "error": str(err)}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

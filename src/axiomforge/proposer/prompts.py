"""Prompt construction for rule-edit proposals, crossover, and mutation."""

from __future__ import annotations

from ..pddl import print_canonical, print_canonical_problem
from .context import ProposalContext
from .extract import fenced

SYSTEM_PROMPT = (
    "You revise the rules of logic games written in PDDL. Rules are the"
    " domain's actions and predicates. Keep the domain name unchanged,"
    " keep every domain you emit syntactically complete, and prefer the"
    " smallest rule change that reaches the stated goal."
)


def build_prompt(ctx: ProposalContext) -> str:
    """User prompt embedding the current rules, the scenario, and the target.

    The output contract asks for each proposal as a complete PDDL domain in
    its own fenced code block; anything else in the reply is ignored.
    """
    parts = [
        "Current rules:",
        fenced(print_canonical(ctx.domain)),
        "",
        "Scenario:",
        fenced(print_canonical_problem(ctx.problem)),
        "",
    ]
    if ctx.baseline_length is None:
        parts.append("The goal is currently unreachable under these rules.")
    else:
        parts.append(
            f"The best plan under the current rules takes {ctx.baseline_length} steps."
        )
    parts.append(
        f"Modify the rules so the scenario becomes solvable in at most"
        f" {ctx.target_length} steps, while every scenario that is solvable"
        f" today stays solvable."
    )
    if ctx.failure_summary:
        parts.append(f"Known failure: {ctx.failure_summary}")
    if ctx.history:
        parts.append("")
        parts.append("Earlier attempts:")
        parts.extend(f"- {entry}" for entry in ctx.history)
    parts.append("")
    parts.append(
        "Reply with one or more proposals. Each proposal must be a complete"
        " modified domain inside its own ```pddl fenced code block."
    )
    return "\n".join(parts)


def crossover_prompt(ctx: ProposalContext, parent_a: str, parent_b: str) -> str:
    return "\n".join(
        [
            "Combine the strengths of these two rule sets for the same game"
            " into a single rule set.",
            "",
            "Rule set A:",
            fenced(parent_a),
            "",
            "Rule set B:",
            fenced(parent_b),
            "",
            f"The combined rules must keep the domain name and should solve the"
            f" scenario in at most {ctx.target_length} steps.",
            "Reply with exactly one complete domain inside a ```pddl fenced"
            " code block.",
        ]
    )


def mutation_prompt(ctx: ProposalContext, candidate: str) -> str:
    return "\n".join(
        [
            "Make one small change to this rule set: add, drop, or adjust a"
            " single precondition, effect, or action.",
            "",
            fenced(candidate),
            "",
            f"Aim for solvability in at most {ctx.target_length} steps without"
            f" breaking scenarios that already work.",
            "Reply with exactly one complete domain inside a ```pddl fenced"
            " code block.",
        ]
    )


def comparison_prompt(reference: str, a: str, b: str) -> str:
    """Atomic query for the semantic distance oracle; answer must be A or B."""
    return "\n".join(
        [
            "Two modified rule sets are compared against a reference rule set."
            " Decide which modification changes the meaning of the rules"
            " less, considering preconditions, effects, and the behaviour"
            " they allow.",
            "",
            "Reference:",
            fenced(reference),
            "",
            "Candidate A:",
            fenced(a),
            "",
            "Candidate B:",
            fenced(b),
            "",
            "Reply with the single letter A or B.",
        ]
    )

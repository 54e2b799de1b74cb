"""Hand-written blocksworld rule variants used by the scripted proposer.

Each variant is the corpus blocksworld text with its edit added: an extra
predicate at the end of `:predicates` and extra actions before the domain's
closing `)`. The original four actions are therefore untouched (so every
original problem stays solvable), and the edit extends the move repertoire:

  * MULTI_LIFT adds a two-block tower pickup/stack pair, which solves the
    flagship restack instance in 2 steps;
  * MID_EXTRACT adds actions that pull a covered block out of a stack while
    the block above settles down, which solves the same instance in 4 steps.
"""

from .domains import BLOCKSWORLD


def _extend(predicates: str, actions: str) -> str:
    """BLOCKSWORLD with `predicates` closing its `:predicates` and `actions`
    before its closing `)`; both are raw text, kept byte for byte."""
    end = BLOCKSWORLD.index("    )\n")  # the line that closes :predicates
    return BLOCKSWORLD[:end] + predicates + BLOCKSWORLD[end:].removesuffix(")\n") + actions + ")\n"


MULTI_LIFT = _extend(
    "        (holding-pair ?top ?bottom)\n",
    """
    (:action pickup-pair
        :parameters (?top ?bottom)
        :precondition (and (clear ?top) (on ?top ?bottom) (on-table ?bottom) (arm-empty))
        :effect (and (holding-pair ?top ?bottom) (not (clear ?top)) (not (on ?top ?bottom)) (not (on-table ?bottom)) (not (arm-empty)))
    )

    (:action stack-pair
        :parameters (?top ?bottom ?underob)
        :precondition (and (holding-pair ?top ?bottom) (clear ?underob))
        :effect (and (arm-empty) (clear ?top) (on ?top ?bottom) (on ?bottom ?underob) (not (clear ?underob)) (not (holding-pair ?top ?bottom)))
    )
""",
)

MID_EXTRACT = _extend(
    "",
    """
    (:action extract-base
        :parameters (?ob ?above)
        :precondition (and (on ?above ?ob) (clear ?above) (on-table ?ob) (arm-empty))
        :effect (and (holding ?ob) (on-table ?above) (not (on ?above ?ob)) (not (on-table ?ob)) (not (arm-empty)))
    )

    (:action extract-middle
        :parameters (?ob ?above ?below)
        :precondition (and (on ?above ?ob) (clear ?above) (on ?ob ?below) (arm-empty))
        :effect (and (holding ?ob) (on ?above ?below) (not (on ?above ?ob)) (not (on ?ob ?below)) (not (arm-empty)))
    )
""",
)

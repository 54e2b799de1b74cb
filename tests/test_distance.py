import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiomforge import corpus
from axiomforge import distance as distance_module
from axiomforge.distance import (
    Choice,
    LevenshteinMockOracle,
    RankedList,
    hybrid_rank,
    levenshtein,
    query_budget,
    semantic_rank,
)
from axiomforge.pddl import parse_domain, print_canonical


def _reference_levenshtein(a, b):
    """Textbook full-matrix DP, kept separate from the implementation."""
    rows, cols = len(a) + 1, len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(dist[i - 1][j] + 1, dist[i][j - 1] + 1, dist[i - 1][j - 1] + cost)
    return dist[-1][-1]


def mutate_text(text, rng, edits=None):
    """Random local edits: insert, delete, or replace a short span."""
    chars = list(text)
    for _ in range(edits if edits is not None else rng.randrange(1, 9)):
        kind = rng.randrange(3)
        pos = rng.randrange(max(1, len(chars)))
        if kind == 0:
            chars.insert(pos, rng.choice("abcxyz?() -"))
        elif kind == 1 and chars:
            del chars[pos]
        else:
            chars[pos:pos + 1] = rng.choice("abcxyz?() -")
    return "".join(chars)


# -- levenshtein ----------------------------------------------------------


def test_and_to_or_is_three_edits():
    assert levenshtein("(and (clear ?x) (clear ?y))", "(or (clear ?x) (clear ?y))") == 3


def test_identity_and_deletion():
    assert levenshtein("same text", "same text") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("", "abc") == 3


@settings(deadline=None)
@given(st.text(max_size=150), st.text(max_size=150))
def test_matches_reference_dp(a, b):
    assert levenshtein(a, b) == _reference_levenshtein(a, b)


def test_corpus_texts_match_reference_dp():
    a = corpus.load("blocksworld").domain_text[:300]
    b = corpus.load("gripper").domain_text[:300]
    assert levenshtein(a, b) == _reference_levenshtein(a, b)


@given(st.text(max_size=30), st.text(max_size=30), st.text(max_size=30))
@settings(max_examples=200, deadline=None)
def test_metric_axioms(a, b, c):
    assert levenshtein(a, a) == 0
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
    assert levenshtein(a, b) <= max(len(a), len(b))


# Texts from which the edited pairs below are built: short ones over a small
# alphabet, so that runs of equal characters and repeats are common, and
# slices of a canonical corpus domain.
_CANONICAL = print_canonical(parse_domain(corpus.load("blocksworld").domain_text))
_SOURCES = st.one_of(
    st.text(alphabet="ab() ", max_size=60),
    st.integers(0, len(_CANONICAL) - 1).map(lambda at: _CANONICAL[at : at + 200]),
)


@st.composite
def _edited_pairs(draw):
    """A text and an edit of it that only inserts, only deletes, or inserts
    and deletes and then overwrites one to three characters."""
    text = draw(_SOURCES)
    kind = draw(st.sampled_from(["insert", "delete", "mixed"]))
    chars = list(text)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(chars)))
        if kind == "insert" or (kind == "mixed" and draw(st.booleans())):
            chars[at:at] = draw(st.text(alphabet="ab() x", min_size=1, max_size=8))
        elif chars:
            del chars[at : at + draw(st.integers(1, 8))]
    if kind == "mixed" and chars:
        for at in draw(st.lists(st.integers(0, len(chars) - 1), min_size=1, max_size=3)):
            chars[at] = draw(st.sampled_from("ab() xy"))
    edited = "".join(chars)
    return (text, edited) if draw(st.booleans()) else (edited, text)


@settings(max_examples=200, deadline=None)
@given(_edited_pairs())
def test_edited_pairs_match_reference_dp(pair):
    a, b = pair
    assert levenshtein(a, b) == _reference_levenshtein(a, b)


@pytest.mark.parametrize("name", ["MULTI_LIFT", "MID_EXTRACT"])
def test_an_insert_only_variant_skips_the_bit_parallel_pass(monkeypatch, name):
    # Each variant only adds text to the canonical original, so its distance
    # is the length difference and the bit-parallel pass never runs.
    variant = print_canonical(parse_domain(getattr(corpus.variants, name)))
    monkeypatch.setattr(distance_module, "_levenshtein_bits", None)
    assert levenshtein(_CANONICAL, variant) == len(variant) - len(_CANONICAL)
    assert levenshtein(variant, _CANONICAL) == len(variant) - len(_CANONICAL)


# -- semantic ranking -------------------------------------------------------


@pytest.fixture()
def mutation_set():
    reference = print_canonical(parse_domain(corpus.load("blocksworld").domain_text))
    rng = random.Random(7)
    candidates = []
    seen = set()
    while len(candidates) < 24:
        text = mutate_text(reference, rng)
        if text not in seen:
            seen.add(text)
            candidates.append(text)
    return reference, candidates


def test_semantic_rank_is_permutation(mutation_set):
    reference, candidates = mutation_set
    ranked = semantic_rank(reference, candidates, LevenshteinMockOracle())
    assert sorted(ranked.items) == sorted(candidates)


def test_semantic_rank_matches_direct_sort(mutation_set):
    reference, candidates = mutation_set
    oracle = LevenshteinMockOracle()
    ranked = semantic_rank(reference, candidates, oracle)
    direct = sorted(candidates, key=lambda t: (levenshtein(reference, t), t))
    assert list(ranked.items) == direct


def test_semantic_rank_permutation_invariant(mutation_set):
    reference, candidates = mutation_set
    oracle = LevenshteinMockOracle()
    baseline = semantic_rank(reference, candidates, oracle).items
    shuffled = list(candidates)
    random.Random(3).shuffle(shuffled)
    assert semantic_rank(reference, shuffled, oracle).items == baseline


def test_query_count_bound(mutation_set):
    reference, candidates = mutation_set
    ranked = semantic_rank(reference, candidates, LevenshteinMockOracle())
    assert ranked.oracle_queries_used <= query_budget(len(candidates))


def test_identical_candidate_ranks_first(mutation_set):
    reference, candidates = mutation_set
    pool = [reference] + candidates[:5]
    ranked = semantic_rank(reference, pool, LevenshteinMockOracle())
    assert ranked.items[0] == reference


def test_semantic_rank_leaves_no_cyclic_garbage(mutation_set):
    reference, candidates = mutation_set
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            semantic_rank(reference, candidates, LevenshteinMockOracle())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_empty_candidates_rejected():
    with pytest.raises(ValueError):
        semantic_rank("ref", [], LevenshteinMockOracle())


@pytest.mark.parametrize("samples", [0, 0.5, float("nan")])
def test_samples_per_query_bound(samples):
    with pytest.raises(ValueError, match="^samples_per_query "):
        LevenshteinMockOracle(samples)
    assert LevenshteinMockOracle(1).samples_per_query == 1


def test_repeat_run_uses_cache_only(mutation_set):
    reference, candidates = mutation_set
    oracle = LevenshteinMockOracle()
    semantic_rank(reference, candidates, oracle)
    transport_after_first = oracle.transport_calls
    again = semantic_rank(reference, candidates, oracle)
    assert oracle.transport_calls == transport_after_first
    assert again.oracle_queries_used > 0  # queries happened, all cache hits


def test_cache_key_is_order_normalized():
    oracle = LevenshteinMockOracle()
    first = oracle.query("ref", "aab", "zzz")
    flipped = oracle.query("ref", "zzz", "aab")
    assert {first, flipped} == {Choice.A, Choice.B}
    assert oracle.transport_calls == 1


def test_majority_vote_tie_breaks_by_levenshtein():
    class Coin(LevenshteinMockOracle):
        def __init__(self):
            super().__init__(samples_per_query=2)
            self.flips = iter([Choice.A, Choice.B])

        def _samples(self, reference, a, b, n):
            self.transport_calls += n
            return [next(self.flips) for _ in range(n)]

    oracle = Coin()
    assert oracle.query("abcd", "abcx", "wxyz") is Choice.A  # closer by edit distance
    assert next(oracle.flips, None) is None  # both flips were voted: a 1-1 tie


def test_faithful_oracle_overrides_edit_distance():
    # A constraint-tightening edit sits semantically closer to the reference
    # than one that drops a requirement, even when it needs more character
    # edits; a faithful oracle must be able to impose that order.
    reference = (
        "(define (domain nav) (:predicates (at ?x) (clear ?y) (adjacent ?x ?y))"
        " (:action move :parameters (?x ?y)"
        " :precondition (and (at ?x) (clear ?y)) :effect (and (at ?y) (not (at ?x)))))"
    )
    tightened = reference.replace(
        "(and (at ?x) (clear ?y))", "(and (at ?x) (clear ?y) (adjacent ?x ?y))"
    )
    loosened = reference.replace("(and (at ?x) (clear ?y))", "(and (at ?x))")
    assert levenshtein(reference, tightened) > levenshtein(reference, loosened)

    def _required(text):
        precondition = text.split(":precondition", 1)[1].split(":effect", 1)[0]
        return sum(part in precondition for part in ("(at ?x)", "(clear ?y)"))

    class Faithful(LevenshteinMockOracle):
        def _samples(self, ref, a, b, n):
            if _required(a) != _required(b):
                self.transport_calls += n
                return [Choice.A if _required(a) > _required(b) else Choice.B] * n
            return super()._samples(ref, a, b, n)

    ranked = semantic_rank(reference, [loosened, tightened], Faithful())
    assert ranked.items == (tightened, loosened)


# -- hybrid ranking ----------------------------------------------------------


def test_hybrid_keep_bounds_queries(mutation_set):
    reference, candidates = mutation_set
    pool = candidates[:10]
    ranked = hybrid_rank(reference, pool, 4, LevenshteinMockOracle())
    assert isinstance(ranked, RankedList)
    assert ranked.oracle_queries_used <= 4 * 2  # 4*ceil(log2 4)
    assert len(ranked.items) == len(pool)


def test_hybrid_keep_all_equals_semantic(mutation_set):
    reference, candidates = mutation_set
    oracle = LevenshteinMockOracle()
    hybrid = hybrid_rank(reference, candidates, len(candidates), oracle)
    semantic = semantic_rank(reference, candidates, LevenshteinMockOracle())
    assert hybrid.items == semantic.items


def test_hybrid_with_lev_oracle_equals_pure_lev_order(mutation_set):
    reference, candidates = mutation_set
    ranked = hybrid_rank(reference, candidates, 6, LevenshteinMockOracle())
    direct = sorted(candidates, key=lambda t: (levenshtein(reference, t), t))
    assert list(ranked.items) == direct


def test_hybrid_keep_validation(mutation_set):
    reference, candidates = mutation_set
    with pytest.raises(ValueError):
        hybrid_rank(reference, candidates, 0, LevenshteinMockOracle())
    with pytest.raises(ValueError):
        hybrid_rank(reference, candidates, len(candidates) + 1, LevenshteinMockOracle())

"""Distances between rule sets: cheap textual and oracle-ranked semantic.

`levenshtein` works on canonical domain text in one bit-parallel pass.
`semantic_rank` orders candidates by proximity to a reference using only
pairwise "which of these two is closer?" oracle answers, threaded through
a merge sort so n candidates cost at most n*ceil(log2 n) comparisons. Each
uncached comparison collects all of its votes through one batched
`_samples` call, which an HTTP oracle sends as a single request.
`hybrid_rank` trims the field by Levenshtein first and lets the oracle
order the survivors.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass


def _levenshtein_bits(a: str, b: str) -> int:
    # Myers (J. ACM 46(3), 1999) in Hyyro's edit-distance form (2003): bit i
    # of vp/vn is set when the DP entry for b[:i+1] is one more/less than
    # the one for b[:i]. Complements are `^ mask`, keeping ints
    # non-negative; stray bits above the mask never reach vp or vn.
    peq: dict[str, int] = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << len(b)) - 1
    top = 1 << (len(b) - 1)
    vp, vn, dist = mask, 0, len(b)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ((xh | vp) ^ mask)
        hn = vp & xh
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ((xv | hp) ^ mask)) & mask
        vn = hp & xv
    return dist


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute)."""
    if a == b:
        return 0
    # Shared prefix/suffix never changes the distance; stripping it makes
    # comparisons between near-identical rule sets close to free. Both are
    # found by binary search over slice equality, which compares in C.
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:  # a[:lo] == b[:lo]; no common prefix is longer than hi
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    prefix = lo
    lo, hi = 0, min(len(a), len(b)) - prefix
    end_a, end_b = len(a), len(b)
    while lo < hi:  # the same search for the suffix, within what is left
        mid = (lo + hi + 1) // 2
        if a[end_a - mid : end_a - lo] == b[end_b - mid : end_b - lo]:
            lo = mid
        else:
            hi = mid - 1
    a, b = a[prefix : end_a - lo], b[prefix : end_b - lo]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    return _levenshtein_bits(a, b)


class Choice(enum.Enum):
    A = "a"
    B = "b"


class OracleUnavailable(Exception):
    """Oracle transport kept failing after the configured retries."""


class DistanceOracle(ABC):
    """Answers "is A or B semantically closer to the reference?".

    Queries are cached under an order-normalized key, so (r, a, b) and
    (r, b, a) share one entry with the answer flipped, and repeated ranking
    runs trigger no new transport work. Each uncached query collects
    `samples_per_query` votes in one `_samples` call and takes the majority;
    an exact tie falls back to the candidate with the smaller Levenshtein
    distance to the reference.
    """

    def __init__(self, samples_per_query: int):
        if samples_per_query < 1:
            raise ValueError("samples_per_query must be >= 1")
        self.samples_per_query = samples_per_query
        self._cache: dict = {}

    @abstractmethod
    def _samples(self, reference: str, a: str, b: str, n: int) -> list[Choice]:
        """n raw comparisons in one batch; implementations count their own
        transport."""

    def query(self, reference: str, a: str, b: str) -> Choice:
        flipped = a > b
        lo, hi = (b, a) if flipped else (a, b)
        key = (reference, lo, hi)
        answer = self._cache.get(key)
        if answer is None:
            votes_lo = sum(
                vote is Choice.A
                for vote in self._samples(reference, lo, hi, self.samples_per_query)
            )
            votes_hi = self.samples_per_query - votes_lo
            if votes_lo != votes_hi:
                answer = Choice.A if votes_lo > votes_hi else Choice.B
            else:
                answer = (
                    Choice.A
                    if levenshtein(reference, lo) <= levenshtein(reference, hi)
                    else Choice.B
                )
            self._cache[key] = answer
        if flipped:
            return Choice.B if answer is Choice.A else Choice.A
        return answer


class LevenshteinMockOracle(DistanceOracle):
    """Deterministic offline oracle: closer means smaller edit distance.

    Ties break on the candidate text itself, which makes the induced order
    total and the ranking independent of input permutation.
    """

    def __init__(self, samples_per_query: int = 1):
        super().__init__(samples_per_query)
        self.transport_calls = 0

    def _samples(self, reference: str, a: str, b: str, n: int) -> list[Choice]:
        """Every vote agrees, so one comparison answers all n; each still
        counts as a transport call."""
        self.transport_calls += n
        ka = (levenshtein(reference, a), a)
        kb = (levenshtein(reference, b), b)
        return [Choice.A if ka <= kb else Choice.B] * n


@dataclass(frozen=True)
class RankedList:
    items: tuple
    oracle_queries_used: int


def query_budget(n: int) -> int:
    """Merge-sort comparison bound for n candidates."""
    return n * math.ceil(math.log2(n)) if n > 1 else 0


def _merge_sort(items: list, closer) -> list:
    # Module-level, not a closure in semantic_rank: a recursive closure is a
    # reference cycle that keeps the oracle and the texts until the cyclic
    # collector runs.
    if len(items) <= 1:
        return items
    mid = len(items) // 2
    left = _merge_sort(items[:mid], closer)
    right = _merge_sort(items[mid:], closer)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if closer(left[i], right[j]):
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def semantic_rank(reference: str, candidates: list, oracle: DistanceOracle) -> RankedList:
    """Merge sort whose comparator is one oracle query per pair."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    queries = 0

    def closer(a: str, b: str) -> bool:
        nonlocal queries
        queries += 1
        return oracle.query(reference, a, b) is Choice.A

    ranked = _merge_sort(list(candidates), closer)
    return RankedList(tuple(ranked), queries)


def hybrid_rank(reference: str, candidates: list, keep: int, oracle: DistanceOracle) -> RankedList:
    """Levenshtein pre-filter, oracle ranking of the survivors.

    The `keep` candidates nearest by edit distance (ties on text) go through
    `semantic_rank`; the rest follow in edit-distance order.
    """
    if not 1 <= keep <= len(candidates):
        raise ValueError("keep must satisfy 1 <= keep <= len(candidates)")
    by_lev = sorted(candidates, key=lambda t: (levenshtein(reference, t), t))
    survivors, dropped = by_lev[:keep], by_lev[keep:]
    ranked = semantic_rank(reference, survivors, oracle)
    return RankedList(ranked.items + tuple(dropped), ranked.oracle_queries_used)

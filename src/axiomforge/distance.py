"""Distances between rule sets: cheap textual and oracle-ranked semantic.

`levenshtein` works on canonical domain text. `semantic_rank` orders
candidates by proximity to a reference using only pairwise "which of these
two is closer?" oracle answers, threaded through a merge sort so n
candidates cost at most n*ceil(log2 n) comparisons. Each uncached
comparison collects all of its votes through one batched `_samples` call,
which an HTTP oracle sends as a single request. `hybrid_rank` trims the
field by Levenshtein first and lets the oracle order the survivors.
"""

from __future__ import annotations

import enum
import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

_VECTOR_THRESHOLD = 48


def _levenshtein_rows(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def _levenshtein_vectorized(a: str, b: str) -> int:
    # Row recurrence with the insertion chain folded into a running minimum:
    # cur[j] = j + min_{k<=j}(t[k] - k) where t holds the delete/substitute
    # candidates and t[0] the row index.
    codes_b = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    offsets = np.arange(len(b) + 1, dtype=np.int64)
    prev = offsets.copy()
    t = np.empty(len(b) + 1, dtype=np.int64)
    for i, ca in enumerate(a, start=1):
        t[0] = i
        np.minimum(prev[:-1] + (codes_b != ord(ca)), prev[1:] + 1, out=t[1:])
        prev = np.minimum.accumulate(t - offsets) + offsets
    return int(prev[-1])


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute)."""
    # Shared prefix/suffix never changes the distance; stripping it makes
    # comparisons between near-identical rule sets close to free.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > _VECTOR_THRESHOLD:
        return _levenshtein_vectorized(a, b)
    return _levenshtein_rows(a, b)


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

    def __init__(self, samples_per_query: int = 16):
        if samples_per_query < 1:
            raise ValueError("samples_per_query must be >= 1")
        self.samples_per_query = samples_per_query
        self._cache: dict = {}
        self._lock = threading.Lock()

    @abstractmethod
    def _sample(self, reference: str, a: str, b: str) -> Choice:
        """One raw comparison; implementations count their own transport."""

    def _samples(self, reference: str, a: str, b: str, n: int) -> list[Choice]:
        """n raw comparisons in one batch; by default n calls of `_sample`."""
        return [self._sample(reference, a, b) for _ in range(n)]

    def query(self, reference: str, a: str, b: str) -> Choice:
        flipped = a > b
        lo, hi = (b, a) if flipped else (a, b)
        key = (reference, lo, hi)
        with self._lock:
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
            with self._lock:
                answer = self._cache.setdefault(key, answer)
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
        self._dist: dict = {}

    def distance(self, reference: str, text: str) -> int:
        key = (reference, text)
        if key not in self._dist:
            self._dist[key] = levenshtein(reference, text)
        return self._dist[key]

    def _sample(self, reference: str, a: str, b: str) -> Choice:
        self.transport_calls += 1
        ka = (self.distance(reference, a), a)
        kb = (self.distance(reference, b), b)
        return Choice.A if ka <= kb else Choice.B


@dataclass(frozen=True)
class RankedList:
    items: tuple
    oracle_queries_used: int


def query_budget(n: int) -> int:
    """Merge-sort comparison bound for n candidates."""
    return n * math.ceil(math.log2(n)) if n > 1 else 0


def semantic_rank(reference: str, candidates: list, oracle: DistanceOracle) -> RankedList:
    """Merge sort whose comparator is one oracle query per pair."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    queries = 0

    def closer(a: str, b: str) -> bool:
        nonlocal queries
        queries += 1
        return oracle.query(reference, a, b) is Choice.A

    def sort(items: list) -> list:
        if len(items) <= 1:
            return items
        mid = len(items) // 2
        left = sort(items[:mid])
        right = sort(items[mid:])
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

    ranked = sort(list(candidates))
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

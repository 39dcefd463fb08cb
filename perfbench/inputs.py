"""Seeded input generation shared by the workloads.

Sizes are drawn by stratified sampling.  The range of a size stream is cut
into STRATA equal strata; the i-th draw of a stream falls in the stratum
that the van der Corput sequence visits i-th, at a seeded point inside it.
Every prefix of that order covers the range evenly, and every seed covers
the same strata, so a run cut off at any point has seen small and large
inputs in the stated proportions whatever the seed.  The generator a
stream is given picks the point inside each stratum; the seed picks every
label, coefficient and order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random


def van_der_corput(index: int) -> float:
    """Base-2 radical inverse of index: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    result, weight = 0.0, 0.5
    while index:
        if index & 1:
            result += weight
        index >>= 1
        weight /= 2
    return result


STRATA = 64


class Strata:
    """A seeded stratified stream of positions in [0, 1)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.count = 0

    def next(self) -> float:
        u = van_der_corput(self.count % STRATA) + self.rng.random() / STRATA
        self.count += 1
        return u


def log_uniform_odd(u: float, lo: int, hi: int) -> int:
    """The odd integer at log-position u in [lo, hi] (lo, hi odd)."""
    x = lo * (hi / lo) ** u
    return min(max(int(x) | 1, lo), hi)


def uniform_int(u: float, lo: int, hi: int) -> int:
    """The integer at position u in [lo, hi]."""
    return min(lo + int(u * (hi - lo + 1)), hi)


def make_rng(workload: str, seed: int | str) -> random.Random:
    """The workload's generator for `seed`; string seeding is stable across runs."""
    return random.Random(f"modcat-bench:{workload}:{seed}")


def digest(plan: list) -> str:
    """Short SHA-256 of a plan's canonical JSON form."""
    text = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_unit(rng: random.Random, n: int) -> int:
    """A uniformly drawn unit modulo n > 1."""
    while True:
        k = rng.randrange(1, n)
        if math.gcd(k, n) == 1:
            return k

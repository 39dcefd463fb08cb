"""cyclic_queries: a stream of numthy and cyclic library calls on odd moduli.

Each block of the plan holds one call of every kind, in seeded order.
Moduli are log-uniform on each kind's range, each kind drawing from its
own stream once per block; the four Jacobi-sign queries of a block share
one modulus, so moduli repeat across calls.  The moduli are part of the
workload definition: they come from a generator of their own that the
seed does not touch, so every seed meets the same sizes and factor
structures, and the seed picks the forms k, the corrupted labels, the
refused calls, the square roots asked for and the order.  A modulus's
factorization sets the cost of the unit scans and self-checks, so moduli
drawn per seed would move the latency percentiles from one seed to the
next by as much as the benchmark's bounds.  The first
block puts every kind at the top of its range, in a fixed order, so each
run meets the largest unit scans and then the largest balancing matrix,
and its peak memory is the same from seed to seed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import oracle
from inputs import Strata, log_uniform_odd, make_rng, random_unit
from modcat import cyclic, numthy
from workload import Op

NAME = "cyclic_queries"
IN_PROCESS = True
# Blocks per second of --seconds: a run of all its passes takes about that long
# on a 2-core virtual machine.
BLOCKS_PER_SECOND = 0.4
PASSES = 3  # times a timed run goes through its op list

# (low, high) odd size range of each input stream; a stream is drawn at
# most once per block, so each kind's sizes form one stratified sequence.
RANGES = {
    "full": (101, 999_983),  # unit scans: classify, equivalence, invariants, autos
    "decompose": (101, 99_991),
    "bosons": (101, 99_991),
    "double": (101, 99_991),  # odd blocks
    "double_root": (11, 315),  # even blocks: n = root^2, a perfect square
    "condense": (101, 99_991),
    "sqrt_low": (101, 9_999),
    "sqrt_high": (10_007, 999_983),
    "balancing": (101, 3_003),
    "off_by_one": (101, 3_003),
    "foreign": (101, 3_003),
    "residuals": (101, 1_001),
    "smatrix": (101, 301),
    "refuse_even": (51, 499_999),  # n = 2m
    "refuse_gcd": (101, 99_991),
}
CONDENSE_PRIMES = (3, 5, 7, 11, 13)


def _prime_power(rng, target: int, below: bool) -> tuple[int, int]:
    """A prime power p^e near target: at most target if below, else at least."""
    e = rng.choice((1, 1, 2, 3))
    root = round(target ** (1 / e))
    if below:
        p = oracle.prime_at_most(max(root, 3))
        while p**e > target and e > 1:
            e -= 1
        return p, e
    p = oracle.prime_at_least(root)
    return p, e


def plan(seed: int, blocks: int) -> list[dict]:
    """The seeded call stream: `blocks` blocks of 16 calls each."""
    rng = make_rng(NAME, seed)
    sizes = make_rng(NAME, "moduli")  # the same for every seed
    strata = {name: Strata(sizes) for name in RANGES}
    out: list[dict] = []
    for b in range(blocks):

        def size(stream: str) -> int:
            lo, hi = RANGES[stream]
            return hi if b == 0 else log_uniform_odd(strata[stream].next(), lo, hi)

        n = size("full")
        k1, k = random_unit(rng, n), random_unit(rng, n)
        if rng.random() < 0.5:
            j = random_unit(rng, n)
            k2 = k1 * j * j % n
        else:
            k2 = random_unit(rng, n)
        block = [
            {"op": "classify", "n": n},
            {"op": "are_equivalent", "n": n, "k1": k1, "k2": k2},
            {"op": "canonical_invariant", "n": n, "k": k},
            {"op": "braided_autos", "n": n, "k": k},
        ]
        for op, stream in (("decompose", "decompose"), ("find_bosons", "bosons")):
            m = size(stream)
            block.append({"op": op, "n": m, "k": random_unit(rng, m)})

        # Perfect squares, the only quantum doubles, in every other block.
        m = size("double_root") ** 2 if b % 2 == 0 else size("double")
        block.append({"op": "is_quantum_double", "n": m, "k": random_unit(rng, m)})

        p = rng.choice(CONDENSE_PRIMES)
        m = max(size("condense") // (p * p), 1) | 1
        m *= p * p
        block.append({"op": "condense_subgroup", "n": m, "k": random_unit(rng, m)})

        for stream, below in (("sqrt_low", True), ("sqrt_high", False)):
            q, e = _prime_power(rng, size(stream), below)
            pe = q**e
            a = rng.randrange(pe)
            if rng.random() < 0.5:
                a = a * a % pe  # a square, so a root exists
            block.append({"op": "sqrt_mod_prime_power", "a": a, "p": q, "e": e})

        for op, stream in (
            ("verify_balancing", "balancing"),
            ("modular_relation_residuals", "residuals"),
            ("smatrix", "smatrix"),
        ):
            m = size(stream)
            block.append({"op": op, "n": m, "k": random_unit(rng, m)})
        for corrupt in ("off_by_one", "foreign"):
            m = size(corrupt)
            block.append({"op": "verify_balancing", "n": m, "k": random_unit(rng, m),
                          "corrupt": corrupt, "label": rng.randrange(m)})

        if b % 2 == 0:
            call = rng.choice(("build_cyclic", "classify", "braided_autos", "decompose"))
            block.append({"op": "refuse", "call": call, "n": 2 * size("refuse_even"), "k": 1})
        else:
            m = size("refuse_gcd")
            q = oracle.factor(m)[0][0]
            block.append({"op": "refuse", "call": "build_cyclic", "n": m,
                          "k": q * rng.randrange(1, m // q + 1)})
        if b > 0:  # block 0 keeps its order: the big unit scans, then the big matrices
            rng.shuffle(block)
        out.extend(block)
    return out


def _twists(n: int, k: int, spec: dict) -> list[Fraction]:
    """Exact twists k j^2 / n, with the corruption the spec asks for."""
    twists = [oracle.twist(n, k, j) for j in range(n)]
    label = spec.get("label")
    if spec.get("corrupt") == "off_by_one":
        twists[label] = (twists[label] + Fraction(1, n)) % 1
    elif spec.get("corrupt") == "foreign":  # denominator 2n does not divide n
        twists[label] = twists[label] + Fraction(1, 2 * n)
    return twists


def _category(n: int, k: int, twists: list[Fraction]) -> cyclic.CyclicCategory:
    return cyclic.CyclicCategory(n=n, k=k, twists=tuple(cyclic.Phase(t) for t in twists))


def _twists_wrong(cat, n: int, k: int) -> str | None:
    if cat.n != n or cat.k != k % n or len(cat.twists) != n:
        return f"category header ({cat.n}, {cat.k}, {len(cat.twists)}) != ({n}, {k % n}, {n})"
    for j, t in enumerate(cat.twists):
        if t.frac.numerator * n != (k * j * j % n) * t.frac.denominator:
            return f"twist {j} is {t}, expected {k * j * j % n}/{n}"
    return None


def _check_classify(n: int):
    def check(reps: list[int]) -> str | None:
        s = len(oracle.factor(n))
        if len(reps) != 2**s:
            return f"{len(reps)} classes, expected 2^{s}"
        if reps != sorted(reps) or reps[0] != 1 or any(gcd(r, n) != 1 for r in reps):
            return "representatives are not ascending units starting at 1"
        if len({oracle.sign_vector(n, r) for r in reps}) != len(reps):
            return "two representatives share a Jacobi sign vector"
        return None

    return check


def _check_equivalent(n: int, k1: int, k2: int):
    if n <= 10_000:
        expected = oracle.is_unit_square_ratio(n, k1, k2)
    else:
        expected = oracle.sign_vector(n, k1) == oracle.sign_vector(n, k2)
    return lambda got: None if got is expected else f"equivalent={got}, expected {expected}"


def _check_invariant(n: int, k: int):
    expected = tuple(
        (p**e, sign) for (p, e), sign in zip(oracle.factor(n), oracle.sign_vector(n, k))
    )
    return lambda got: None if got.factors == expected else f"{got.factors} != {expected}"


def _check_autos(n: int):
    def check(autos: list[int]) -> str | None:
        s = len(oracle.factor(n))
        if len(autos) != 2**s or autos != sorted(set(autos)):
            return f"{len(autos)} automorphisms, expected 2^{s} distinct"
        if any(u * u % n != 1 for u in autos) or autos[0] != 1 or autos[-1] != n - 1:
            return "an automorphism is not a square root of 1"
        return None

    return check


def _check_decompose(n: int, k: int):
    def check(parts) -> str | None:
        moduli = [p**e for p, e in oracle.factor(n)]
        if [part.n for part in parts] != moduli:
            return f"factor moduli {[part.n for part in parts]} != {moduli}"
        for part in parts:
            wrong = _twists_wrong(part, part.n, k * (n // part.n))
            if wrong:
                return f"factor C({part.n}): {wrong}"
        return None

    return check


def _check_bosons(n: int, k: int):
    def check(result) -> str | None:
        cat, bosons = result
        step = oracle.boson_step(n)
        if bosons != list(range(0, n, step)):
            return f"bosons {bosons[:8]}... are not the multiples of {step}"
        return _twists_wrong(cat, n, k)

    return check


def _check_condense(n: int, k: int):
    step = oracle.boson_step(n)
    quotient = step * step // n

    def check(outcome) -> str | None:
        if outcome.subgroup != tuple(range(0, n, step)) or len(outcome.perp) != step:
            return f"|H|={len(outcome.subgroup)}, |H-perp|={len(outcome.perp)}"
        if outcome.lagrangian != (quotient == 1):
            return f"lagrangian={outcome.lagrangian} with quotient order {quotient}"
        q = outcome.quotient
        if quotient > 1 and (q.n, q.k, outcome.generator) != (quotient, k % quotient, n // step):
            return f"quotient C({q.n},{q.k}) on {outcome.generator}, expected C({quotient},{k % quotient})"
        return None

    return check


def _check_sqrt(a: int, p: int, e: int):
    pe = p**e
    exists = oracle.sqrt_exists(a, p, e)

    def check(root) -> str | None:
        if root is None:
            return "no root returned, but one exists" if exists else None
        if not exists or not 0 <= root < pe or root * root % pe != a:
            return f"{root} is not a square root of {a} mod {pe}"
        return None

    return check


def _check_balancing(n: int, k: int, twists: list[Fraction], corrupt: bool):
    def check(report) -> str | None:
        if not corrupt:
            return None if report.passed and report.witness is None else f"valid data failed at {report.witness}"
        if report.passed or report.witness is None:
            return "corrupted twists passed the balancing check"
        i, j = report.witness
        if not oracle.balancing_fails_at(n, k, twists, i, j):
            return f"witness {report.witness} satisfies the balancing identity"
        return None

    return check


def _check_residuals(n: int, k: int):
    def check(residuals) -> str | None:
        if max(residuals) > 1e-8:
            return f"modular relations off by {residuals}"
        return None

    return check


def _check_smatrix(n: int, k: int):
    def check(rows) -> str | None:
        if len(rows) != n:
            return f"{len(rows)} rows, expected {n}"
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                f = entry.frac
                if f.numerator * n != (-2 * k * i * j % n) * f.denominator:
                    return f"S[{i}][{j}] = {entry}"
        return None

    return check


class Session:
    """Turns plan entries into operations; cyclic_queries keeps no state."""

    def __init__(self, workdir: str, trace: bool, plan: list[dict]) -> None:
        del workdir, trace, plan  # in-process: the worker installs the tracer

    def counters(self) -> dict[str, float]:
        return {}

    def prepare(self, spec: dict) -> Op:
        kind = spec["op"]
        n, k = spec.get("n", 0), spec.get("k", 1)
        if kind == "classify":
            return Op(kind, n, lambda: cyclic.classify(n), _check_classify(n))
        if kind == "are_equivalent":
            k1, k2 = spec["k1"], spec["k2"]
            return Op(kind, n, lambda: cyclic.are_equivalent(n, k1, k2),
                      _check_equivalent(n, k1, k2))
        if kind == "canonical_invariant":
            return Op(kind, n, lambda: cyclic.canonical_invariant(n, k), _check_invariant(n, k))
        if kind == "braided_autos":
            return Op(kind, n, lambda: cyclic.braided_autos(n, k), _check_autos(n))
        if kind == "decompose":
            return Op(kind, n, lambda: cyclic.decompose(n, k), _check_decompose(n, k))
        if kind == "find_bosons":
            def build_and_find():
                cat = cyclic.build_cyclic(n, k)
                return cat, cyclic.find_bosons(cat)
            return Op(kind, n, build_and_find, _check_bosons(n, k))
        if kind == "is_quantum_double":
            expected = oracle.is_square(n)
            return Op(kind, n, lambda: cyclic.is_quantum_double(cyclic.build_cyclic(n, k)),
                      lambda got: None if got is expected else f"double={got}, expected {expected}")
        if kind == "condense_subgroup":
            subgroup = list(range(0, n, oracle.boson_step(n)))
            return Op(kind, n,
                      lambda: cyclic.condense_subgroup(cyclic.build_cyclic(n, k), subgroup),
                      _check_condense(n, k))
        if kind == "sqrt_mod_prime_power":
            a, p, e = spec["a"], spec["p"], spec["e"]
            return Op(kind, p**e, lambda: numthy.sqrt_mod_prime_power(a, p, e),
                      _check_sqrt(a, p, e))
        if kind == "verify_balancing":
            twists = _twists(n, k, spec)
            cat = _category(n, k, twists)
            corrupt = "corrupt" in spec
            return Op(kind, n, lambda: cyclic.verify_balancing(cat),
                      _check_balancing(n, k, twists, corrupt),
                      fails_in=("cyclic",) if corrupt else ())
        if kind == "modular_relation_residuals":
            cat = _category(n, k, _twists(n, k, spec))
            return Op(kind, n, lambda: cyclic.modular_relation_residuals(cat),
                      _check_residuals(n, k))
        if kind == "smatrix":
            cat = _category(n, k, _twists(n, k, spec))
            return Op(kind, n, lambda: cyclic.smatrix(cat), _check_smatrix(n, k))
        if kind == "refuse":
            args = (n,) if spec["call"] == "classify" else (n, k)
            refusal = cyclic.UnsupportedModulusError if n % 2 == 0 else cyclic.DegenerateFormError
            return Op(kind, n, lambda: getattr(cyclic, spec["call"])(*args), refusal=refusal)
        raise ValueError(f"unknown cyclic_queries op {kind!r}")

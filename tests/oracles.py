"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: exhaustive search, character
sums, and pure-Python loops, kept separate from the library code paths
they check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import cos, gcd, pi
from operator import attrgetter
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modcat.cyclic import (
    CondensationError,
    CondensationOutcome,
    CyclicCategory,
    NonBosonError,
    NotASubgroupError,
    NotIsotropicError,
    Phase,
    _modular_residuals,
    build_cyclic,
    gauss_sum,
)
from modcat.fusion import FusionRing, dihedral_fusion, pointed_cyclic_ring, verify_fusion_ring
from modcat.metaplectic import CondensedData, GroupReconstructionError, so_n2_fusion


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def quadratic_residues(p: int) -> set[int]:
    """Nonzero squares modulo p by enumeration."""
    return {x * x % p for x in range(1, p)} - {0}


def sqrt_by_search(a: int, modulus: int) -> int | None:
    for j in range(modulus):
        if j * j % modulus == a % modulus:
            return j
    return None


def units(n: int) -> list[int]:
    """Residues coprime to n, ascending.  units(1) == [0]."""
    return [u for u in range(n) if gcd(u, n) == 1]


def braided_autos_by_search(n: int) -> list[int]:
    """Units u of Z_n with u^2 = 1 (mod n), by scanning every residue;
    [0] for n = 1."""
    if n == 1:
        return [0]
    return [u for u in range(1, n) if u * u % n == 1]


def unit_square_orbits_by_search(n: int) -> tuple[int, list[int]]:
    """Orbits of the units of Z_n under multiplication by unit squares, by
    sweeping each new orbit out of the units: (count, ascending minima)."""
    us = units(n)
    squares = {u * u % n for u in us}
    seen: set[int] = set()
    reps: list[int] = []
    for u in us:
        if u in seen:
            continue
        reps.append(u)
        seen.update(u * v % n for v in squares)
    return len(reps), reps


def equivalent_by_unit_search(n: int, k1: int, k2: int) -> bool:
    """Exists a unit j with k1 = k2 j^2 (mod n)?"""
    if n == 1:
        return True
    return any(
        (k2 * j * j - k1) % n == 0 for j in range(1, n) if gcd(j, n) == 1
    )


def balancing_witness(cat: CyclicCategory) -> tuple[int, int] | None:
    """First pair (i, j) in row-major order over all n^2 pairs where
    S_ij theta_i theta_j != theta_{j-i}, in exact fractions; None if the
    identity holds everywhere."""
    n, k = cat.n, cat.k
    theta = [t.frac for t in cat.twists]
    for i in range(n):
        for j in range(n):
            lhs = Fraction(-2 * k * i * j, n) + theta[i] + theta[j]
            if (lhs - theta[(j - i) % n]).denominator != 1:
                return i, j
    return None


def is_nondegenerate(cat: CyclicCategory) -> bool:
    """Non-degeneracy of the bilinear form: every x != 0 pairs
    non-trivially with some y."""
    for x in range(1, cat.n):
        if all((2 * cat.k * x * y) % cat.n == 0 for y in range(cat.n)):
            return False
    return True


def residues_by_labels(n: int, k: int) -> tuple[int, ...]:
    """The twist residues k j^2 mod n, computed for every label j."""
    return tuple(k * j * j % n for j in range(n))


def bosons_by_scan(cat: CyclicCategory) -> list[int]:
    """Labels whose stored residue is 0, by scanning every label."""
    return [j for j, r in enumerate(cat.residues) if r == 0]


def smatrix_by_entries(cat: CyclicCategory) -> list[list[Phase]]:
    """The exact S-matrix with one Phase built per entry, from the
    numerator reduced modulo n (Phase's own reduction is the slow part)."""
    n, k = cat.n, cat.k
    return [[Phase.of(-2 * k * i * j % n, n) for j in range(n)] for i in range(n)]


def smatrix_complex(cat: CyclicCategory) -> np.ndarray:
    """Normalized numeric S-matrix (1/sqrt(n)) e^{-4 pi i k i j / n}, read
    off a table of the n distinct phases."""
    n, k = cat.n, cat.k
    idx = np.arange(n)
    table = np.exp(2j * np.pi * idx / n)
    return table[(-2 * k % n) * np.outer(idx, idx) % n] / np.sqrt(n)


def smatrix_complex_by_entries(cat: CyclicCategory) -> np.ndarray:
    """The normalized numeric S-matrix with np.exp taken per entry."""
    n, k = cat.n, cat.k
    idx = np.arange(n)
    phases = (-2 * k % n) * np.outer(idx, idx) % n
    return np.exp(2j * np.pi * phases / n) / np.sqrt(n)


def gauss_sum_by_sum(n: int, k: int) -> complex:
    """sum_j e^{2 pi i k j^2 / n}, summed term by term."""
    j = np.arange(n)
    return complex(np.exp(2j * np.pi * ((k * j * j) % n) / n).sum())


MODULAR_TOL = 1e-9  # entrywise bound of the numeric modular-relation verdict


def modular_relations_by_residuals(residuals: tuple[float, float]) -> bool:
    """The numeric verdict on (S T)^3 = (G / sqrt(n)) S^2 and S^4 = I: both
    max entrywise residuals within MODULAR_TOL."""
    return max(residuals) <= MODULAR_TOL


def modular_relation_residuals_by_matmul(
    cats: Sequence[CyclicCategory],
) -> list[tuple[float, float]]:
    """Max entrywise errors of (S T)^3 - (G / sqrt(n)) S^2 and S^4 - I from
    dense n x n matrix products, for categories sharing n, theta_j from the
    stored residue over its denominator.

    F_ij = w^{-ij} is the dense DFT of Z_n, formed once and read off a
    table of the n distinct phases as smatrix_complex reads it.  For each
    run of categories sharing k, S = F P / sqrt(n), with P the 0/1 matrix
    taking column j from column p_j = 2 k j mod n of F; so S equals
    smatrix_complex bit for bit.  F is symmetric, so also S = P^T F /
    sqrt(n): S^2 = P^T F^2 P / n and S^4 = P^T F^2 C F^2 P / n^2, where C =
    P P^T is the diagonal of the counts c_m = #{j : p_j = m}.  F^2 and F^2
    C F^2 are products formed once per call and once per c, read at rows
    and columns p; (S T)^3 takes two products per category."""
    n = cats[0].n
    assert all(c.n == n for c in cats)
    idx = np.arange(n)
    f = np.exp(2j * np.pi * idx / n)[-np.outer(idx, idx) % n]
    f2 = f @ f
    quartics: dict[bytes, np.ndarray] = {}
    residuals = []
    for k, run in groupby(cats, key=attrgetter("k")):
        p = 2 * k * idx % n
        counts = np.bincount(p, minlength=n)
        key = counts.tobytes()
        if key not in quartics:
            quartics[key] = (f2 * counts) @ f2
        s4 = quartics[key].take(p, 0).take(p, 1) / n**2
        err2 = float(np.abs(s4 - np.eye(n)).max())
        s = f.take(p, 1) / np.sqrt(n)
        anomaly_s2 = gauss_sum_by_sum(n, k) / np.sqrt(n) * f2.take(p, 0).take(p, 1) / n
        for cat in run:
            d = cat.denominator
            theta = np.exp(2j * np.pi * np.array([r / d for r in cat.residues]))
            st = s * theta[None, :]
            residuals.append((float(np.abs(st @ st @ st - anomaly_s2).max()), err2))
    return residuals


def fixing_roots_by_search(cat: CyclicCategory) -> list[int]:
    """The square roots u of 1 modulo n, by search, with residues[u j mod
    n] == residues[j] at every label j, ascending."""
    n, s = cat.n, cat.residues
    return [u for u in braided_autos_by_search(n) if all(s[u * j % n] == s[j] for j in range(n))]


def orbit_rows_by_search(n: int, group: Sequence[int]) -> list[int]:
    """The least label of each orbit of Z_n under multiplication by the
    elements of a group of units, ascending."""
    return [j for j in range(n) if all(u * j % n >= j for u in group)]


def modular_error_matrix(cat: CyclicCategory) -> np.ndarray:
    """|(S T)^3 - (G / sqrt(n)) S^2| entrywise, every row at once: one
    row-wise FFT of the whole n x n array, two such arrays live at the
    peak."""
    n, k, d = cat.n, cat.k, cat.denominator

    def hankel(v: np.ndarray) -> np.ndarray:  # a view: entry (i, l) is v[(i + l) % n]
        return sliding_window_view(np.concatenate((v, v[:-1])), n)

    theta = np.exp(2j * np.pi * np.array([r / d for r in cat.residues]))
    perm = (2 * k % n) * np.arange(n) % n
    h = np.fft.fft(theta)[perm] / n
    g = np.fft.fft(np.ones(n))[perm] / n
    rows = np.fft.fft(hankel(h) * theta, axis=1)
    st3 = np.take(rows, perm, axis=1)
    del rows
    st3 *= theta / np.sqrt(n)
    st3 -= hankel(gauss_sum(n, k) / np.sqrt(n) * g)
    return np.abs(st3)


def modular_residuals_unblocked(cat: CyclicCategory) -> tuple[float, float]:
    """modular_relation_residuals from modular_error_matrix, its maximum
    taken over the orbit rows of the twist-fixing roots found by search."""
    n, k = cat.n, cat.k
    rows = orbit_rows_by_search(n, fixing_roots_by_search(cat))
    err1 = float(modular_error_matrix(cat)[rows].max())
    g = np.fft.fft(np.ones(n))[(2 * k % n) * np.arange(n) % n] / n
    f = np.fft.fft(g)
    s4 = np.fft.ifft(f * f[-np.arange(n) % n])
    s4[0] -= 1
    return err1, float(np.abs(s4).max())


def modular_relation_residuals_by_phases(cat: CyclicCategory) -> tuple[float, float]:
    """modular_relation_residuals with each theta_j taken from
    float(cat.twists[j].frac), the Phase of the twist, over the orbit rows
    of the twist-fixing roots found by search."""
    rows = np.array(orbit_rows_by_search(cat.n, fixing_roots_by_search(cat)))
    return _modular_residuals(cat.n, cat.k, [float(t.frac) for t in cat.twists], rows)


def perp_by_search(cat: CyclicCategory, h: list[int]) -> list[int]:
    """Labels pairing trivially with every element of h, by scanning Z_n."""
    n, k = cat.n, cat.k
    return [j for j in range(n) if all((2 * k * j * a) % n == 0 for a in h)]


def lagrangian_subgroup_by_search(cat: CyclicCategory) -> tuple[int, ...] | None:
    """First subgroup d Z_n, d ascending over the divisors of n, of bosons
    that is isotropic pair by pair and equals its perp."""
    n = cat.n
    for d in (d for d in range(1, n + 1) if n % d == 0):
        h = list(range(0, n, d))
        if any(not cat.twists[a].is_zero for a in h):
            continue
        if any((2 * cat.k * a * b) % n != 0 for a in h for b in h):
            continue
        if perp_by_search(cat, h) == h:
            return tuple(h)
    return None


def condense_by_search(cat: CyclicCategory, subgroup) -> CondensationOutcome:
    """condense_subgroup with closure and isotropy checked on every pair of
    H, in row-major order, and H-perp found by scanning Z_n."""
    n, k = cat.n, cat.k
    h = sorted(set(x % n for x in subgroup))
    if 0 not in h:
        raise NotASubgroupError("subgroup must contain 0")
    hset = set(h)
    for a in h:
        for b in h:
            if (a + b) % n not in hset:
                raise NotASubgroupError(
                    f"not closed under addition: {a} + {b} escapes the set"
                )
    for a in h:
        if not cat.twists[a].is_zero:
            raise NonBosonError(f"element {a} has twist {cat.twists[a]}, not a boson")
    for a in h:
        for b in h:
            if (2 * k * a * b) % n != 0:
                raise NotIsotropicError(f"b({a},{b}) != 0: subgroup is not isotropic")
    perp = perp_by_search(cat, h)
    order = len(perp) // len(h)
    if order == 1:
        return CondensationOutcome(tuple(h), tuple(perp), 0, build_cyclic(1, 0), True)
    gen = perp[1]
    t1 = cat.twists[gen].frac * order
    if t1.denominator != 1:
        raise CondensationError("descended form does not live on the quotient")
    quotient = build_cyclic(order, int(t1) % order)
    for x in range(order):
        if cat.twists[x * gen % n] != quotient.twists[x]:
            raise CondensationError(f"descended twist mismatch at {x}")
    return CondensationOutcome(tuple(h), tuple(perp), gen, quotient, False)


def associativity_violations(ring: FusionRing) -> list[tuple[int, int, int, int]]:
    """Pure-Python quadruple-loop associativity check over present entries."""
    r = ring.rank
    bad = []
    for i in range(r):
        for j in range(r):
            ij = ring.fuse(i, j)
            for k in range(r):
                lhs: dict[int, int] = {}
                for m, c1 in ij.items():
                    for l, c2 in ring.fuse(m, k).items():
                        lhs[l] = lhs.get(l, 0) + c1 * c2
                rhs: dict[int, int] = {}
                for m, c1 in ring.fuse(j, k).items():
                    for l, c2 in ring.fuse(i, m).items():
                        rhs[l] = rhs.get(l, 0) + c1 * c2
                for l in set(lhs) | set(rhs):
                    if lhs.get(l, 0) != rhs.get(l, 0):
                        bad.append((i, j, k, l))
    return bad


def row_witness_by_dicts(ring: FusionRing, i: int) -> tuple[int, int, int, int] | None:
    """First (i, j, k, l), row-major, with sum_m N_ij^m N_mk^l != sum_m
    N_jk^m N_im^l, joining rows of the fuse index into one dict per side for
    every (j, k)."""
    row_i = [ring.fuse(i, j) for j in range(ring.rank)]
    for j, ij in enumerate(row_i):
        left = [(m, a) for m, a in ij.items()]
        for k in range(ring.rank):
            lhs: dict[int, int] = {}
            for m, a in left:
                for l, b in ring.fuse(m, k).items():
                    lhs[l] = lhs.get(l, 0) + a * b
            rhs: dict[int, int] = {}
            for m, a in ring.fuse(j, k).items():
                for l, b in row_i[m].items():
                    rhs[l] = rhs.get(l, 0) + a * b
            if lhs != rhs:
                differ = [l for l in lhs.keys() | rhs.keys() if lhs.get(l) != rhs.get(l)]
                return (i, j, k, min(differ))
    return None


def first_axiom_witnesses(ring: FusionRing) -> dict[str, tuple[int, int, int] | None]:
    """First failing (i, j, k) of the unit, dual and commutativity checks by
    a pure-Python scan, stage after stage, each stage in row-major order;
    None where the family holds.  Stages: unit N_0j^k = N_j0^k = delta_jk
    (first the (0, j, k), then the (i, 0, k) triples); dual
    N_ij^0 = delta_{j, i*}, then N_ij^k = N_{i*k}^j, then N_ij^k = N_{kj*}^i;
    commutativity N_ij^k = N_ji^k."""
    r, n, dual = ring.rank, ring.n, ring.dual
    pairs = [(a, b) for a in range(r) for b in range(r)]
    cube = [(i, j, k) for i in range(r) for (j, k) in pairs]

    def first(*stages):
        for triples, holds in stages:
            for ijk in triples:
                if not holds(*ijk):
                    return ijk
        return None

    return {
        "unit": first(
            ([(0, j, k) for j, k in pairs], lambda i, j, k: n(i, j, k) == (j == k)),
            ([(i, 0, k) for i, k in pairs], lambda i, j, k: n(i, j, k) == (i == k)),
        ),
        "dual": first(
            ([(i, j, 0) for i, j in pairs], lambda i, j, k: n(i, j, k) == (j == dual[i])),
            (cube, lambda i, j, k: n(i, j, k) == n(dual[i], k, j)),
            (cube, lambda i, j, k: n(i, j, k) == n(k, dual[j], i)),
        ),
        "commutativity": first((cube, lambda i, j, k: n(i, j, k) == n(j, i, k))),
    }


def dihedral_character_coeffs(n: int) -> dict[tuple[int, int, int], int]:
    """Fusion coefficients of the order-2n dihedral group's character ring,
    derived from character inner products (n odd).

    Irreducible characters: trivial, sign, and (n-1)/2 two-dimensional ones
    with chi_h(rotation^t) = 2 cos(2 pi h t / n) and 0 on reflections.
    Index order matches dihedral_fusion: 0 trivial, 1 sign, 1+h the h-th
    two-dimensional character.
    """
    half = (n - 1) // 2
    rank = 2 + half

    def char(idx: int, t: int | None) -> float:
        # t is the rotation exponent; None means a reflection.
        if idx == 0:
            return 1.0
        if idx == 1:
            return 1.0 if t is not None else -1.0
        h = idx - 1
        return 2.0 * cos(2 * pi * h * t / n) if t is not None else 0.0

    coeffs = {}
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                total = sum(char(i, t) * char(j, t) * char(k, t) for t in range(n))
                total += n * char(i, None) * char(j, None) * char(k, None)
                mult = round(total / (2 * n))
                assert abs(total / (2 * n) - mult) < 1e-9
                if mult:
                    coeffs[(i, j, k)] = mult
    return coeffs


def so_n2_by_rules(n: int) -> FusionRing:
    """SO(N)_2 built rule by rule, each coefficient counted as it is added:
    units, Z swapping the X's and fixing the Y's, X (x) X = 1 + all Y's,
    X1 (x) X2 = Z + all Y's, X (x) Y = X1 + X2, and the dihedral Y block."""
    half = (n - 1) // 2
    rank = 4 + half
    x1, x2 = 2, 3

    def y(i: int) -> int:
        return 3 + i

    coeffs: dict[tuple[int, int, int], int] = {}

    def add(i: int, j: int, k: int) -> None:
        coeffs[(i, j, k)] = coeffs.get((i, j, k), 0) + 1

    def add_sym(i: int, j: int, k: int) -> None:
        add(i, j, k)
        if i != j:
            add(j, i, k)

    for i in range(rank):
        add(0, i, i)
        if i != 0:
            add(i, 0, i)
    add(1, 1, 0)
    add_sym(1, x1, x2)
    add_sym(1, x2, x1)
    for i in range(1, half + 1):
        add_sym(1, y(i), y(i))
    for x in (x1, x2):
        add(x, x, 0)
        for i in range(1, half + 1):
            add(x, x, y(i))
    add_sym(x1, x2, 1)
    for i in range(1, half + 1):
        add_sym(x1, x2, y(i))
    for x in (x1, x2):
        for i in range(1, half + 1):
            add_sym(x, y(i), x1)
            add_sym(x, y(i), x2)
    for i in range(1, half + 1):
        for j in range(1, half + 1):
            if i == j:
                add(y(i), y(i), 0)
                add(y(i), y(i), 1)
                add(y(i), y(i), y(min(2 * i, n - 2 * i)))
            else:
                add(y(i), y(j), y(min(i + j, n - i - j)))
                add(y(i), y(j), y(abs(i - j)))

    labels = ("1", "Z", "X1", "X2") + tuple(f"Y{i}" for i in range(1, half + 1))
    return FusionRing(rank=rank, labels=labels, dual=tuple(range(rank)), coeffs=coeffs)


def deligne_product(a: FusionRing, b: FusionRing) -> FusionRing:
    """The product ring of a and b: simple (i, j) at index i * b.rank + j,
    N_{(i,j)(k,l)}^{(m,n)} = N_ik^m N_jl^n, built through the validating
    constructor."""
    r = b.rank
    coeffs = {
        (i * r + j, k * r + l, m * r + n): x * y
        for (i, k, m), x in a.coeffs.items()
        for (j, l, n), y in b.coeffs.items()
    }
    labels = tuple(f"{x}*{y}" for x in a.labels for y in b.labels)
    dual = tuple(a.dual[i] * r + b.dual[j] for i in range(a.rank) for j in range(r))
    return FusionRing(a.rank * r, labels, dual, coeffs)


def fibonacci_ring() -> FusionRing:
    """1 and t with t (x) t = 1 + t: not weakly integral."""
    coeffs = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    return FusionRing(rank=2, labels=("1", "t"), dual=(0, 1), coeffs=coeffs)


def rank3_non_integral_ring(m: int) -> FusionRing:
    """w^2 = 1 + z + m w with z w = w: d_w = (m + sqrt(m^2 + 8)) / 2, not
    weakly integral."""
    coeffs = {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1,
        (0, 2, 2): 1, (2, 0, 2): 1, (1, 2, 2): 1, (2, 1, 2): 1,
        (2, 2, 0): 1, (2, 2, 1): 1, (2, 2, 2): m,
    }
    return FusionRing(rank=3, labels=("1", "z", "w"), dual=(0, 1, 2), coeffs=coeffs)


def fp_identity_residual(ring: FusionRing, dims: list[float]) -> float:
    """Max violation of d_i d_j = sum_k N_ij^k d_k over all pairs."""
    worst = 0.0
    for i in range(ring.rank):
        for j in range(ring.rank):
            rhs = sum(m * dims[k] for k, m in ring.fuse(i, j).items())
            worst = max(worst, abs(dims[i] * dims[j] - rhs))
    return worst


def small_deligne_products() -> list[FusionRing]:
    """The 49 ordered products of Z_2, Z_3, Z_4, SO(3)_2, SO(5)_2, the
    dihedral ring of order 6 and Fibonacci; some have non-cyclic gradings."""
    factors = [pointed_cyclic_ring(n) for n in (2, 3, 4)]
    factors += [so_n2_fusion(3), so_n2_fusion(5), dihedral_fusion(3), fibonacci_ring()]
    return [deligne_product(a, b) for a in factors for b in factors]


def closure_by_all_pairs(ring: FusionRing, seeds: set[int]) -> set[int]:
    """Smallest fusion- and dual-closed set containing the unit and seeds,
    grown by fusing every member with every new member and adding the
    duals of what appears, until nothing new appears."""
    closed = {0} | set(seeds) | {ring.dual[s] for s in seeds}
    frontier = list(closed)
    while frontier:
        fresh = {c for a in closed for b in frontier for c in ring.fuse(a, b)} - closed
        fresh |= {ring.dual[c] for c in fresh} - closed
        closed |= fresh
        frontier = list(fresh)
    return closed


def subring_by_filter(ring: FusionRing, generators: set[int]) -> FusionRing:
    """The subring on closure_by_all_pairs(ring, generators), built through
    the validating constructor: every parent coefficient whose three
    indices lie in the closure, renumbered in the parents' order."""
    kept = sorted(closure_by_all_pairs(ring, generators))
    index = {old: new for new, old in enumerate(kept)}
    coeffs = {
        (index[i], index[j], index[k]): m
        for (i, j, k), m in ring.coeffs.items()
        if i in index and j in index and k in index
    }
    labels = tuple(ring.labels[i] for i in kept)
    return FusionRing(len(kept), labels, tuple(index[ring.dual[i]] for i in kept), coeffs)


def with_coefficient_by_constructor(ring: FusionRing, i: int, j: int, k: int, m: int) -> FusionRing:
    """ring with N_ij^k = m (0 deletes), every coefficient re-checked by the
    validating constructor; a deleted index is checked as a one-entry ring."""
    coeffs = dict(ring.coeffs)
    if type(m) is int and m == 0:
        FusionRing(ring.rank, ring.labels, ring.dual, {(i, j, k): 1})
        coeffs.pop((i, j, k), None)
    else:
        coeffs[(i, j, k)] = m
    return FusionRing(ring.rank, ring.labels, ring.dual, coeffs)


def grading_components_by_search(ring: FusionRing) -> list[int]:
    """Component id of each simple under the universal grading, grown by a
    breadth-first search that fuses with every adjoint object until no new
    simple appears; ids number the components by their smallest member."""
    adjoint = {c for i in range(ring.rank) for c in ring.fuse(i, ring.dual[i])}
    while True:  # close the components of every i (x) i* under fusion
        grown = adjoint | {c for a in adjoint for b in adjoint for c in ring.fuse(a, b)}
        if grown == adjoint:
            break
        adjoint = grown
    component = [-1] * ring.rank
    count = 0
    for i in range(ring.rank):
        if component[i] >= 0:
            continue
        component[i] = count
        queue = [i]
        while queue:
            x = queue.pop()
            for a in adjoint:
                for y in ring.fuse(a, x):
                    if component[y] < 0:
                        component[y] = count
                        queue.append(y)
        count += 1
    return component


GROUP_PRECONDITION = (
    "not condensed data: need D0 = one unit object plus both halves of each "
    "split source, a non-empty D1, a verified ring and an index z with "
    "z (x) z = 1 fixing every split source"
)


def group_law_by_full_scan(data: CondensedData) -> tuple[dict[str, int], tuple[int | None, ...]]:
    """reconstruct_group's assignment and the group_elem of each D0 object,
    with the lifted fusion rule checked on every ordered pair of split
    sources; raises GroupReconstructionError with the same messages.  Each
    part of the precondition is checked on its own, and each raises the
    one refusal."""
    ring, z, order = data.ring, data.z, len(data.d0)

    def refuse() -> GroupReconstructionError:
        return GroupReconstructionError(GROUP_PRECONDITION)

    unit_positions = [p for p, o in enumerate(data.d0) if 0 in o.sources]
    if len(unit_positions) != 1 or data.d1 == ():
        raise refuse()
    children: dict[int, list[int]] = {}
    for pos, obj in enumerate(data.d0):
        if obj.split is not None:
            children.setdefault(obj.sources[0], []).append(pos)
    if any(len(positions) != 2 for positions in children.values()):
        raise refuse()
    if len(children) * 2 + 1 != order:
        raise refuse()
    if not verify_fusion_ring(ring).all_passed:
        raise refuse()
    if type(z) is not int or not 0 <= z < ring.rank or ring.fuse(z, z) != {0: 1}:
        raise refuse()
    if any(ring.fuse(z, s) != {s: 1} for s in children):
        raise refuse()
    sources = sorted(children)
    step_of: dict[int, int] = {}
    if sources:
        first = cur = sources[0]
        step_of[first] = 1
        for step in range(2, len(sources) + 1):
            comps = [c for c in ring.fuse(first, cur) if c in children and c not in step_of]
            if len(comps) != 1:
                raise GroupReconstructionError(
                    f"cannot extend generator chain past step {step}: "
                    f"witness pair ({ring.labels[first]}, {ring.labels[cur]})"
                )
            cur = comps[0]
            step_of[cur] = step
    residue = {unit_positions[0]: 0}
    for src, (pos1, pos2) in children.items():
        residue[pos1], residue[pos2] = step_of[src], order - step_of[src]

    lifts = {src: [residue[p] for p in positions] for src, positions in children.items()}
    lifts.update({0: [0], z: [0]})

    def child_residues(source: int) -> list[int]:
        if source not in lifts:
            raise GroupReconstructionError(
                f"component {ring.labels[source]} is not in the identity sector"
            )
        return lifts[source]

    for a in sources:
        for b in sources:
            lifted = sorted((ra + rb) % order for ra in lifts[a] for rb in lifts[b])
            condensed = sorted(
                r
                for target, mult in ring.fuse(a, b).items()
                for r in child_residues(target) * mult
            )
            if lifted != condensed:
                raise GroupReconstructionError(
                    f"group law inconsistent: witness pair "
                    f"({ring.labels[a]}, {ring.labels[b]})"
                )
    assignment = {obj.name: residue[pos] for pos, obj in enumerate(data.d0)}
    return assignment, tuple(residue[pos] for pos in range(order))

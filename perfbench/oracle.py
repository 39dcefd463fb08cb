"""Reference arithmetic the benchmark checks modcat's answers against.

Nothing here imports modcat: factorization is the benchmark's own trial
division, quadratic characters come from Euler's criterion, and fusion
identities are re-evaluated from raw coefficient dictionaries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == [(n, 1)]


def prime_at_least(target: int) -> int:
    """The smallest odd prime >= target."""
    p = max(target, 3) | 1
    while not is_prime(p):
        p += 2
    return p


def prime_at_most(target: int) -> int:
    """The largest odd prime <= target (target >= 3)."""
    p = (target - 1) | 1
    while not is_prime(p):
        p -= 2
    return p


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def sign_vector(n: int, k: int) -> tuple[int, ...]:
    """Legendre sign of the local parameter k * n / p^a at each prime p^a || n."""
    signs = []
    for p, e in factor(n):
        pp = p**e
        signs.append(legendre(k * (n // pp) % pp, p))
    return tuple(signs)


def is_unit_square_ratio(n: int, k1: int, k2: int) -> bool:
    """Whether k1 = k2 j^2 (mod n) for some unit j, by search over units."""
    target = k1 * pow(k2, -1, n) % n
    return any(gcd(j, n) == 1 and j * j % n == target for j in range(n))


def sqrt_exists(a: int, p: int, e: int) -> bool:
    """Whether a has a square root modulo p^e (p an odd prime, 0 <= a < p^e)."""
    if a == 0:
        return True
    t = 0
    while a % p == 0:
        a //= p
        t += 1
    return t % 2 == 0 and legendre(a, p) == 1


def twist(n: int, k: int, j: int) -> Fraction:
    return Fraction(k * j * j % n, n)


def balancing_fails_at(n: int, k: int, twists: list[Fraction], i: int, j: int) -> bool:
    """True when S_ij theta_i theta_j != theta_{j-i} at the pair (i, j)."""
    lhs = (Fraction(-2 * k * i * j, n) + twists[i] + twists[j]) % 1
    return lhs != twists[(j - i) % n] % 1


def boson_step(n: int) -> int:
    """g with {j : n | j^2} = gZ_n, the boson subgroup of C(n, k); g = n when trivial."""
    g = 1
    for p, e in factor(n):
        g *= p ** ((e + 1) // 2)
    return g


def is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


# ---- fusion rings as raw {(i, j, k): m} dictionaries ----------------------


def unit_fails_at(coeffs: dict, w: tuple) -> bool:
    a, b, c = w
    if a == 0:
        return coeffs.get((0, b, c), 0) != (b == c)
    return b == 0 and coeffs.get((a, 0, c), 0) != (a == c)


def dual_fails_at(coeffs: dict, dual: tuple, w: tuple) -> bool:
    a, b, c = w
    n = coeffs.get((a, b, c), 0)
    if c == 0 and n != (b == dual[a]):
        return True
    return n != coeffs.get((dual[a], c, b), 0) or n != coeffs.get((c, dual[b], a), 0)


def commutativity_fails_at(coeffs: dict, w: tuple) -> bool:
    a, b, c = w
    return coeffs.get((a, b, c), 0) != coeffs.get((b, a, c), 0)


def associativity_fails_at(coeffs: dict, rank: int, w: tuple) -> bool:
    i, j, k, l = w
    lhs = sum(coeffs.get((i, j, m), 0) * coeffs.get((m, k, l), 0) for m in range(rank))
    rhs = sum(coeffs.get((j, k, m), 0) * coeffs.get((i, m, l), 0) for m in range(rank))
    return lhs != rhs


def grading_is_additive(coeffs: dict, grades: tuple, order: int) -> bool:
    """Every fusion channel i (x) j -> k respects grade(i) + grade(j) = grade(k)."""
    return grades[0] == 0 and all(
        (grades[i] + grades[j] - grades[k]) % order == 0 for i, j, k in coeffs
    )

"""Elementary number theory over odd moduli: factorization, Jacobi symbols,
square roots modulo prime powers, and unit-group orbits.

Everything here is exact integer arithmetic.  Moduli of interest are
desk-scale (<= 10**6), so factorization is plain trial division; square
roots come from Tonelli-Shanks plus Hensel lifting, and unit-square orbits
are told apart by their Legendre signs.  Brute-force counterparts of these
algorithms live in the test oracles.
"""

from __future__ import annotations

Factorization = list[tuple[int, int]]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Witness set is deterministic for n < 3.3 * 10**24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs.

    factorize(1) == [].
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"factorize requires an integer n >= 1, got {n!r}")
    factors: Factorization = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return factors


def distinct_primes(n: int) -> list[int]:
    """The distinct prime divisors of n, ascending."""
    return [p for p, _ in factorize(n)]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1.

    Returns 0 iff gcd(a, n) > 1; for odd prime n it is the Legendre
    symbol, i.e. +1 exactly on nonzero quadratic residues.
    """
    if type(a) is not int or type(n) is not int:
        raise ValueError(f"Jacobi symbol needs integers a and n, got {a!r}, {n!r}")
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _tonelli_shanks(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p; a must be a nonzero QR mod p."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _hensel_lift(r: int, a: int, p: int, e: int) -> int:
    """Lift r with r**2 == a (mod p) to a root modulo p**e (p odd)."""
    modulus = p
    while modulus < p**e:
        modulus = min(modulus * modulus, p**e)
        inv = pow(2 * r, -1, modulus)
        r = (r - (r * r - a) * inv) % modulus
    return r % p**e


def sqrt_mod_prime_power(a: int, p: int, e: int) -> int | None:
    """Some j with j**2 == a (mod p**e), or None when no root exists.

    p must be an odd prime (the even-modulus theory is out of scope) and
    0 <= a < p**e.  For gcd(a, p) = 1 solvability agrees with
    jacobi(a, p) == +1.  The root comes from Tonelli-Shanks modulo p,
    Hensel-lifted to p**e after dividing out the even power of p in a.
    """
    if not (type(a) is type(p) is type(e) is int):
        raise ValueError(f"need integers a, p, e, got {a!r}, {p!r}, {e!r}")
    if p == 2:
        raise ValueError("p = 2 is not supported; only odd prime moduli")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"exponent must be positive, got {e}")
    if not 0 <= a < p**e:
        raise ValueError(f"need 0 <= a < p**e, got a={a}, p**e={p**e}")
    if a == 0:
        return 0
    t = 0
    while a % p == 0:
        a //= p
        t += 1
    if t % 2 == 1 or jacobi(a, p) != 1:
        return None
    root = _hensel_lift(_tonelli_shanks(a, p), a, p, e - t)
    return root * p ** (t // 2) % p**e


def unit_square_orbits(n: int) -> tuple[int, list[int]]:
    """Orbits of the units of Z_n under multiplication by unit squares.

    Returns (orbit count, smallest representative of each orbit,
    ascending).  For odd n the count is 2**s where s is the number of
    distinct primes of n.

    Two units share an orbit exactly when their quotient is a square
    modulo every prime power of n, i.e. when their Legendre symbols agree
    modulo every prime of n.  Scanning u = 1, 2, ... and keeping the first
    unit of each new sign vector therefore yields the orbit minima; the
    scan stops once all 2**s sign vectors have appeared.
    """
    if type(n) is not int or n <= 0 or n % 2 == 0:
        raise ValueError(f"need odd positive integer n, got {n!r}")
    if n == 1:
        return 1, [0]
    primes = distinct_primes(n)
    count = 2 ** len(primes)
    seen: set[tuple[int, ...]] = set()
    reps: list[int] = []
    u = 0
    while len(reps) < count:
        u += 1
        signs = tuple(jacobi(u, p) for p in primes)
        if 0 not in signs and signs not in seen:
            seen.add(signs)
            reps.append(u)
    return count, reps

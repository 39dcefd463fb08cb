from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modcat.numthy import (
    distinct_primes,
    factorize,
    is_prime,
    jacobi,
    sqrt_mod_prime_power,
    unit_square_orbits,
)
from tests.oracles import (
    is_prime_trial,
    quadratic_residues,
    sqrt_by_search,
    unit_square_orbits_by_search,
    units,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_factorize_examples():
    assert factorize(45) == [(3, 2), (5, 1)]
    assert factorize(7) == [(7, 1)]
    assert factorize(1) == []


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    for n in (15.0, True, "15"):  # 15.0 once factored as [(3, 1), (5.0, 1)]
        with pytest.raises(ValueError, match="integer"):
            factorize(n)


def test_factorize_small_range_exhaustive():
    for n in range(1, 20_001):
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime_trial(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300)
def test_factorize_roundtrip(n):
    prod = 1
    for p, e in factorize(n):
        prod *= p**e
        assert is_prime(p)
    assert prod == n


def test_jacobi_examples():
    assert quadratic_residues(5) == {1, 4}  # oracle behind the frozen value
    assert jacobi(2, 5) == -1
    for p in ODD_PRIMES:
        assert jacobi(1, p) == 1
    assert jacobi(3, 9) == 0


def test_jacobi_rejects_even_or_nonpositive():
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_refuses_non_integers():
    # (2.5|7) once answered 0, (3|5.0) -1 and (2|True) 1.
    for a, n in ((2.5, 7), (3, 5.0), (2, True), (True, 5), ("3", 5), (3, 7.5)):
        with pytest.raises(ValueError, match="integer"):
            jacobi(a, n)


def test_is_prime_rejects_small_numbers_and_strong_pseudoprimes():
    # Every factor here exceeds 37, so trial division passes them all to
    # Miller-Rabin: 252601 = 41 * 61 * 101 is a Carmichael number, and
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3,
    # 5 and 7.
    for n in (-7, 0, 1, 1763, 252601, 3215031751):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)


def test_jacobi_matches_quadratic_residues():
    for p in ODD_PRIMES:
        residues = quadratic_residues(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert jacobi(a, p) == expected


@given(
    a=st.integers(min_value=-500, max_value=500),
    b=st.integers(min_value=-500, max_value=500),
    n=st.integers(min_value=0, max_value=300).map(lambda i: 2 * i + 1),
)
@settings(max_examples=200)
def test_jacobi_multiplicative_in_top(a, b, n):
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@given(
    a=st.integers(min_value=-500, max_value=500),
    m=st.integers(min_value=0, max_value=150).map(lambda i: 2 * i + 1),
    n=st.integers(min_value=0, max_value=150).map(lambda i: 2 * i + 1),
)
@settings(max_examples=200)
def test_jacobi_multiplicative_in_bottom(a, m, n):
    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_sqrt_mod_prime_power_examples():
    root = sqrt_mod_prime_power(4, 3, 2)
    assert root in (2, 7) and root * root % 9 == 4
    assert sqrt_mod_prime_power(2, 5, 1) is None  # 2 not in {1, 4}
    assert sqrt_mod_prime_power(0, 7, 1) == 0


def test_sqrt_mod_prime_power_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(1, 2, 3)  # p = 2 out of scope
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(1, 15, 1)  # not a prime
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(9, 3, 2)  # a out of range
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(1, 3, 0)
    for args in ((4, 5.0, 1), (4.0, 5, 1), (4, 5, 1.0), (True, 5, 1)):
        with pytest.raises(ValueError, match="integers"):  # not a TypeError
            sqrt_mod_prime_power(*args)


def test_sqrt_paths_agree_on_overlap():
    # Exhaustive search (oracle) and Tonelli-Shanks + Hensel on the same moduli.
    cases = [(3, 1), (3, 2), (3, 4), (5, 1), (5, 3), (7, 2), (11, 2), (13, 1)]
    for p, e in cases:
        pe = p**e
        for a in range(pe):
            lo = sqrt_by_search(a, pe)
            hi = sqrt_mod_prime_power(a, p, e)
            assert (lo is None) == (hi is None), (a, p, e)
            if hi is not None:
                assert hi * hi % pe == a


def test_sqrt_solvability_matches_jacobi():
    for p in ODD_PRIMES:
        for e in (1, 2):
            pe = p**e
            for a in range(1, pe):
                if a % p == 0:
                    continue
                root = sqrt_mod_prime_power(a, p, e)
                assert (root is not None) == (jacobi(a, p) == 1)


@given(
    p=st.sampled_from([101, 103, 107, 109, 113, 127]),
    e=st.integers(min_value=2, max_value=4),
    a=st.integers(min_value=0, max_value=10**8),
)
@settings(max_examples=150)
def test_sqrt_large_modulus_roundtrip(p, e, a):
    pe = p**e
    a %= pe
    root = sqrt_mod_prime_power(a, p, e)
    if root is None:
        if a % p != 0:
            assert jacobi(a, p) == -1
    else:
        assert root * root % pe == a


def test_sqrt_absence_cross_checked_small():
    for p, e in [(3, 2), (5, 2), (7, 1), (11, 1)]:
        pe = p**e
        for a in range(pe):
            assert (sqrt_mod_prime_power(a, p, e) is None) == (
                sqrt_by_search(a, pe) is None
            )


def test_unit_square_orbit_examples():
    count, reps = unit_square_orbits(5)
    assert count == 2 and reps == [1, 2]
    assert {1 * v % 5 for v in {u * u % 5 for u in units(5)}} == {1, 4}

    count, reps = unit_square_orbits(15)
    assert count == 4
    assert {u * u % 15 for u in units(15)} == {1, 4}  # orbit of 1

    assert unit_square_orbits(1) == (1, [0])


def test_unit_square_orbits_rejects_even():
    with pytest.raises(ValueError):
        unit_square_orbits(4)
    for n in (15.0, True):  # both once got an answer
        with pytest.raises(ValueError, match="integer"):
            unit_square_orbits(n)


def test_unit_square_orbit_count_small_exhaustive():
    for n in range(1, 1502, 2):
        count, reps = unit_square_orbits(n)
        assert count == 2 ** len(distinct_primes(n)) if n > 1 else count == 1
        assert count == len(reps)
        assert all(gcd(r, n) == 1 for r in reps) or n == 1
        assert (count, reps) == unit_square_orbits_by_search(n)


@given(st.integers(min_value=751, max_value=5000).map(lambda i: 2 * i + 1))
@settings(max_examples=60)
def test_unit_square_orbit_count_sampled(n):
    count, reps = unit_square_orbits(n)
    assert count == 2 ** len(distinct_primes(n))
    assert (count, reps) == unit_square_orbits_by_search(n)


def test_orbit_representatives_are_inequivalent():
    # Distinct orbits never share an element: reps * squares partition units.
    for n in (9, 15, 45, 105):
        _, reps = unit_square_orbits(n)
        squares = {u * u % n for u in units(n)}
        orbits = [{r * s % n for s in squares} for r in reps]
        seen: set[int] = set()
        for orbit in orbits:
            assert not (orbit & seen)
            seen |= orbit
        assert seen == set(units(n))

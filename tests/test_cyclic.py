import cmath
import copy
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modcat._value import replace
from modcat.cyclic import (
    ClassDescriptor,
    CondensationError,
    CyclicCategory,
    DegenerateFormError,
    NonBosonError,
    NotASubgroupError,
    NotIsotropicError,
    Phase,
    UnsupportedModulusError,
    _orbit_rows,
    are_equivalent,
    bilinear,
    braided_autos,
    build_cyclic,
    canonical_invariant,
    classify,
    condense_subgroup,
    decompose,
    find_bosons,
    find_lagrangian_subgroup,
    gauss_sum,
    is_quantum_double,
    modular_relation_residuals,
    smatrix,
    verify_balancing,
    verify_modular_relations,
)
from modcat.numthy import distinct_primes
from tests.oracles import (
    balancing_witness,
    bosons_by_scan,
    braided_autos_by_search,
    condense_by_search,
    equivalent_by_unit_search,
    fixing_roots_by_search,
    gauss_sum_by_sum,
    is_nondegenerate,
    lagrangian_subgroup_by_search,
    modular_error_matrix,
    modular_relation_residuals_by_matmul,
    modular_relation_residuals_by_phases,
    modular_relations_by_residuals,
    modular_residuals_unblocked,
    orbit_rows_by_search,
    residues_by_labels,
    smatrix_by_entries,
    smatrix_complex,
    smatrix_complex_by_entries,
    units,
)
from tests.test_package import fresh

odd_n = st.integers(min_value=0, max_value=60).map(lambda i: 2 * i + 1)
odd_n_to_10000 = st.integers(min_value=0, max_value=4999).map(lambda i: 2 * i + 1)


def coprime_pair(n: int, seed: int) -> int:
    """Deterministic unit of Z_n derived from a seed."""
    if n == 1:
        return 0
    k = seed % n
    while gcd(k, n) != 1:
        k = (k + 1) % n
    return k


# ---------------------------------------------------------------- Phase


def test_phase_reduces_modulo_one():
    assert Phase.of(7, 5).frac == Fraction(2, 5)
    assert Phase.of(-1, 5).frac == Fraction(4, 5)
    assert Phase.of(10, 5).frac == 0


def test_phase_arithmetic():
    assert Phase.of(3, 5) + Phase.of(4, 5) == Phase.of(2, 5)
    assert -Phase.of(1, 3) == Phase.of(2, 3)
    assert Phase.of(1, 6) - Phase.of(1, 2) == Phase.of(2, 3)
    assert 3 * Phase.of(1, 6) == Phase.of(1, 2)


def test_phase_string_forms():
    assert str(Phase.of(0)) == "0/1"
    assert str(Phase.of(12, 45)) == "4/15"
    assert Phase.parse("4/15") == Phase.of(4, 15)
    assert Phase.parse("3") == Phase.of(0)


@pytest.mark.parametrize("text", [" 3 ", "1_0/3", "\u0661/\u0663", "1/-3", "1/0"])
def test_phase_parse_refuses_all_but_ascii_a_or_a_over_b(text):
    # int() alone takes the first three and a negative denominator, and
    # Fraction raises ZeroDivisionError for the last.
    with pytest.raises(ValueError, match=re.escape(f"twist {text!r} is not")):
        Phase.parse(text)


def test_phase_pickle_and_deepcopy_roundtrip():
    """Phase pickles through its own __reduce__ (default unpickling would
    restore the slot state through the frozen __setattr__, which refuses
    it), and a twists tuple keeps its shared objects shared."""
    phase = Phase.of(4, 15)
    assert phase.__reduce__() == (Phase, (Fraction(4, 15),))
    assert not hasattr(phase, "__dict__")
    twists = build_cyclic(45, 2).twists
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(phase, protocol)) == phase
        loaded = pickle.loads(pickle.dumps(twists, protocol))
        assert loaded == twists and len(set(map(id, loaded))) == len(set(map(id, twists)))
    assert copy.deepcopy(phase) == phase and copy.deepcopy(twists) == twists
    assert hash(copy.deepcopy(phase)) == hash(phase)


@given(
    a=st.integers(min_value=-40, max_value=40),
    b=st.integers(min_value=1, max_value=40),
    c=st.integers(min_value=-40, max_value=40),
    d=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100)
def test_phase_group_laws(a, b, c, d):
    x, y = Phase.of(a, b), Phase.of(c, d)
    assert x + y == y + x
    assert (x + y) - y == x
    assert x + (-x) == Phase.of(0)
    assert 0 <= x.frac < 1
    assert abs(x.as_complex() * y.as_complex() - (x + y).as_complex()) < 1e-12


# ------------------------------------------------------------ construction


def test_build_cyclic_twists_frozen():
    cat = build_cyclic(5, 1)
    assert [str(t) for t in cat.twists] == ["0/1", "1/5", "4/5", "4/5", "1/5"]


def test_build_trivial_category():
    cat = build_cyclic(1, 1)
    assert cat.n == 1 and cat.k == 0
    assert cat.twists == (Phase.of(0),)


def test_build_rejects_degenerate_and_even():
    with pytest.raises(DegenerateFormError, match=r"gcd\(k,n\) = 3"):
        build_cyclic(9, 3)
    with pytest.raises(UnsupportedModulusError):
        build_cyclic(6, 1)
    with pytest.raises(ValueError):
        build_cyclic(-3, 1)
    for n in (5.0, True):  # 5.0 once raised a TypeError
        with pytest.raises(ValueError, match="modulus must be a positive integer"):
            build_cyclic(n, 1)


def test_non_int_moduli_are_refused():
    # classify(15.0) used to answer; the others raised a TypeError.
    for call in (
        lambda: classify(15.0),
        lambda: canonical_invariant(15.0, 2),
        lambda: are_equivalent(15.0, 1, 4),
        lambda: gauss_sum(5.0, 1),
    ):
        with pytest.raises(ValueError, match="modulus must be a positive integer"):
            call()
    # A float k raised a TypeError; a bool k was read as 0 or 1.
    for call in (
        lambda: build_cyclic(5, 1.0),
        lambda: build_cyclic(5, True),
        lambda: canonical_invariant(15, 2.0),
        lambda: are_equivalent(15, 1.0, 4),
        lambda: are_equivalent(15, 1, False),
        lambda: braided_autos(15, 2.0),
        lambda: decompose(15, 2.0),
        lambda: gauss_sum(5, 1.5),
        lambda: gauss_sum(5, True),
    ):
        with pytest.raises(ValueError, match="k must be an integer"):
            call()


def test_k_stored_modulo_n():
    assert build_cyclic(7, 10).k == 3
    assert build_cyclic(7, -1).k == 6


@given(n=odd_n, seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150)
def test_particle_hole_twist_symmetry(n, seed):
    cat = build_cyclic(n, coprime_pair(n, seed))
    for j in range(n):
        assert cat.twists[j] == cat.twists[(n - j) % n]
    assert cat.twists[0] == Phase.of(0)


def test_residues_match_per_label_oracle():
    """The mirrored half table equals k j^2 mod n taken per label: every odd
    n < 300 with every unit k in [-3, n + 3), and n in {1, 99991, 1000003}
    with k in {1, 2, n - 1}."""
    cases = [(n, k) for n in range(1, 300, 2) for k in range(-3, n + 3) if gcd(k, n) == 1]
    cases += [(n, k) for n in (1, 99991, 1000003) for k in (1, 2, n - 1)]
    for n, k in cases:
        assert build_cyclic(n, k).residues == residues_by_labels(n, k)


# ---------------------------------------------------------------- bilinear


def test_bilinear_examples():
    assert bilinear(build_cyclic(5, 1), 1, 1) == Phase.of(2, 5)
    assert bilinear(build_cyclic(9, 1), 3, 3) == Phase.of(0)
    cat = build_cyclic(7, 2)
    for x in range(7):
        assert bilinear(cat, x, 0) == Phase.of(0)


def test_bilinear_rejects_out_of_range():
    with pytest.raises(ValueError):
        bilinear(build_cyclic(5, 1), 5, 0)
    for x, y in ((True, 2), (2, 1.0), ("1", 1)):  # (True, 2) once answered 4/9
        with pytest.raises(ValueError, match="labels must be integers"):
            bilinear(build_cyclic(9, 1), x, y)


@given(n=odd_n, seed=st.integers(min_value=0, max_value=10**6), data=st.data())
@settings(max_examples=100)
def test_bilinear_symmetric_biadditive_and_polarizes(n, seed, data):
    cat = build_cyclic(n, coprime_pair(n, seed))
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    z = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert bilinear(cat, x, y) == bilinear(cat, y, x)
    assert bilinear(cat, (x + z) % n, y) == bilinear(cat, x, y) + bilinear(cat, z, y)
    # b(x, y) = q(x + y) - q(x) - q(y)
    assert bilinear(cat, x, y) == cat.twist(x + y) - cat.twist(x) - cat.twist(y)


def test_nondegeneracy_iff_unit_parameter():
    for n in (1, 3, 9, 15, 25):
        for k in range(n):
            twists = tuple(Phase.of(k * j * j, n) for j in range(n))
            cat = CyclicCategory(n=n, k=k, twists=twists)
            assert is_nondegenerate(cat) == (gcd(k, n) == 1)


# ---------------------------------------------------------------- S-matrix


def test_smatrix_examples():
    s = smatrix(build_cyclic(3, 1))
    assert s[1][1] == Phase.of(1, 3)
    assert all(entry == Phase.of(0) for entry in s[0])
    assert all(s[i][j] == s[j][i] for i in range(3) for j in range(3))


def test_smatrix_unitarity_row_sums():
    cat = build_cyclic(9, 2)
    n = cat.n
    for x in range(n):
        for xp in range(n):
            total = sum(
                cmath.exp(
                    2j
                    * cmath.pi
                    * float((bilinear(cat, x, y) - bilinear(cat, xp, y)).frac)
                )
                for y in range(n)
            )
            expected = n if x == xp else 0
            assert abs(total - expected) < 1e-9


def test_smatrix_complex_is_normalized():
    cat = build_cyclic(7, 3)
    s = smatrix_complex(cat)
    assert abs(abs(s[0, 0]) - 1 / math.sqrt(7)) < 1e-12


def test_smatrix_complex_matches_entrywise_exp_bit_for_bit():
    """The table of n distinct phases gives the bytes of np.exp taken per
    entry, for odd n < 200 and n in {997, 1001}, with k in {1, 2, n - 1}."""
    for n in [*range(1, 200, 2), 997, 1001]:
        for k in {1, 2 % n, n - 1}:
            cat = _twists_with(n, k, {})
            assert smatrix_complex(cat).tobytes() == smatrix_complex_by_entries(cat).tobytes()


# ---------------------------------------------------------------- balancing


def test_balancing_passes_on_valid_data():
    assert verify_balancing(build_cyclic(5, 1)).passed
    assert verify_balancing(build_cyclic(45, 2)).passed


def test_balancing_catches_corrupted_twist():
    cat = build_cyclic(5, 1)
    twists = list(cat.twists)
    twists[2] = Phase.of(3, 5)  # denominator divides n
    report = verify_balancing(replace(cat, twists=tuple(twists)))
    assert not report.passed
    assert report.witness is not None

    twists = list(cat.twists)
    twists[1] = Phase.of(1, 7)  # foreign denominator: compared over lcm(5, 7)
    report = verify_balancing(replace(cat, twists=tuple(twists)))
    assert not report.passed


@given(n=odd_n, seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_balancing_property(n, seed):
    assert verify_balancing(build_cyclic(n, coprime_pair(n, seed))).passed


def _twists_with(n: int, k: int, shifts: dict[int, Fraction]) -> CyclicCategory:
    """C(n, k) built directly (any n, even included) with the twist of
    each label in shifts moved by the given amount."""
    twists = tuple(
        Phase(Fraction(k * j * j, n) + shifts.get(j, Fraction(0))) for j in range(n)
    )
    return CyclicCategory(n=n, k=k, twists=twists)


@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
@settings(max_examples=300)
def test_balancing_verdict_and_witness_match_all_pairs_oracle(n, seed, data):
    k = coprime_pair(n, seed)
    labels = st.integers(min_value=0, max_value=n - 1)
    kind = data.draw(
        st.sampled_from(
            ["valid", "off_by_1/n", "denominator_2n", "label_0", "several", "j/2"]
        )
    )
    if kind == "valid":
        shifts = {}
    elif kind == "j/2":
        # A character of order 2 added to every twist: it keeps every pair
        # balanced exactly when n is even.
        shifts = {j: Fraction(j, 2) for j in range(n)}
    elif kind == "off_by_1/n":
        shifts = {data.draw(labels): Fraction(1, n)}
    elif kind == "denominator_2n":
        shifts = {data.draw(labels): Fraction(1, 2 * n)}
    elif kind == "label_0":
        shifts = {0: Fraction(data.draw(st.integers(1, 2 * n - 1)), 2 * n)}
    else:
        amounts = st.builds(
            Fraction, st.integers(1, 20), st.sampled_from([n, 2 * n, 3, 7])
        )
        shifts = data.draw(
            st.dictionaries(labels, amounts, min_size=min(n, 2), max_size=6)
        )
    cat = _twists_with(n, k, shifts)
    report = verify_balancing(cat)
    witness = balancing_witness(cat)
    assert report.passed == (witness is None)
    assert report.witness == witness


def test_balancing_witness_matches_oracle_on_single_label_corruptions():
    """Deterministic sweep at sizes past the property test: one twist moved
    by 1/n or 1/(2n) at label 0 (row 0 fails at (0, 0)), 1, n - 1 (row 1
    fails at j = 0, through s_{j-1} read at index -1) and one seeded label.
    Every input fails within two rows, so the all-pairs oracle stops early."""
    rng = random.Random(26)
    for n in (63, 64, 101, 300, 301, 1001):
        k = coprime_pair(n, rng.randrange(10**6))
        for label in (0, 1, n - 1, rng.randrange(n)):
            for shift in (Fraction(1, n), Fraction(1, 2 * n)):
                cat = _twists_with(n, k, {label: shift})
                report = verify_balancing(cat)
                witness = balancing_witness(cat)
                assert witness is not None and witness[0] <= 1, (n, k, label, shift)
                assert (report.passed, report.witness) == (False, witness), (n, k, label, shift)


# --------------------------------------------------------------- Gauss sums


def test_gauss_sum_examples():
    g = gauss_sum(5, 1)
    assert abs(g - math.sqrt(5)) < 1e-9  # real and positive
    g = gauss_sum(3, 1)
    assert abs(g - 1j * math.sqrt(3)) < 1e-9
    assert abs(abs(gauss_sum(15, 2)) - math.sqrt(15)) < 1e-9


def test_gauss_closed_form_matches_term_sum():
    """The closed form is within 1e-12 sqrt(n) of the term-by-term sum for
    odd n < 400 and every k in [-3, n + 3), non-units and k = 0 included."""
    for n in range(1, 400, 2):
        for k in range(-3, n + 3):
            assert abs(gauss_sum(n, k) - gauss_sum_by_sum(n, k)) <= 1e-12 * math.sqrt(n)


def test_gauss_magnitude_detects_degeneracy():
    for n in range(1, 200, 2):
        for k in range(n):
            magnitude = abs(gauss_sum(n, k))
            if gcd(k, n) == 1:
                assert abs(magnitude - math.sqrt(n)) < 1e-9
            else:
                assert abs(magnitude - math.sqrt(n)) > 1e-6


@given(
    m=st.integers(min_value=1, max_value=22).map(lambda i: 2 * i + 1),
    n=st.integers(min_value=1, max_value=22).map(lambda i: 2 * i + 1),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=80)
def test_gauss_multiplicativity(m, n, seed):
    if gcd(m, n) != 1:
        return
    k = coprime_pair(m * n, seed)
    lhs = gauss_sum(m * n, k)
    rhs = gauss_sum(m, k * n) * gauss_sum(n, k * m)
    assert abs(lhs - rhs) < 1e-9


# ------------------------------------------------------------- equivalence


def test_are_equivalent_examples():
    assert are_equivalent(5, 1, 4)  # j = 2
    assert not are_equivalent(5, 1, 2)
    for n, k in ((7, 3), (45, 2)):
        assert are_equivalent(n, k, k)


def test_are_equivalent_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        are_equivalent(9, 3, 1)


@given(
    n=st.one_of(odd_n, odd_n_to_10000),
    s1=st.integers(0, 10**6),
    s2=st.integers(0, 10**6),
)
@settings(max_examples=200)
def test_equivalence_matches_unit_search_oracle(n, s1, s2):
    k1, k2 = coprime_pair(n, s1), coprime_pair(n, s2)
    assert are_equivalent(n, k1, k2) == equivalent_by_unit_search(n, k1, k2)


def test_canonical_invariant_examples():
    assert canonical_invariant(15, 1).factors == ((3, -1), (5, -1))
    assert canonical_invariant(9, 1).factors == ((9, 1),)
    for p in (5, 7, 13):
        for k in range(1, p):
            for j in range(1, p):
                assert canonical_invariant(p, k) == canonical_invariant(
                    p, k * j * j % p
                )


def test_descriptor_json_roundtrip():
    desc = canonical_invariant(45, 2)
    assert desc.modulus == 45
    for n in range(1, 200, 2):
        for k in range(n):
            if gcd(k, n) == 1:
                desc = canonical_invariant(n, k)
                assert ClassDescriptor.from_json_dict(desc.to_json_dict()) == desc


@pytest.mark.parametrize(
    "data, field",
    [
        ({"factors": [{"pp": 5.7, "sign": True}]}, "pp"),
        ({"factors": [{"pp": 5, "sign": True}]}, "sign"),
        ({"factors": [{"pp": 5, "sign": 1.0}]}, "sign"),
        ({"factors": [{"pp": 5, "sign": 0}]}, "sign"),
        ({"factors": [{"pp": 5, "sign": 2}]}, "sign"),
        ({"factors": [{"pp": "5", "sign": 1}]}, "pp"),
        ({"factors": [{"pp": True, "sign": 1}]}, "pp"),
        ({"factors": [{"pp": 1, "sign": 1}]}, "pp"),
        ({"factors": [{"pp": 5}]}, "factors"),
        ({"factors": [[5, 1]]}, "factors"),
        ({"factors": {"pp": 5, "sign": 1}}, "factors"),
        ({}, "factors"),
        ([], "descriptor"),
    ],
)
def test_descriptor_json_refuses_malformed_fields(data, field):
    with pytest.raises(ValueError, match=rf"^{field} |'{field}'"):
        ClassDescriptor.from_json_dict(data)


def test_classify_examples():
    assert classify(5) == [1, 2]
    assert len(classify(15)) == 4
    assert classify(1) == [0]


def test_classify_pairwise_inequivalent():
    for n in (9, 45, 105):
        reps = classify(n)
        for i, k1 in enumerate(reps):
            for k2 in reps[i + 1 :]:
                assert not are_equivalent(n, k1, k2)


# -------------------------------------------------------------- decompose


def test_decompose_examples():
    parts = decompose(15, 1)
    assert [(p.n, p.k) for p in parts] == [(3, 2), (5, 3)]
    # label j = 1 sits at CRT coordinates (2, 2): 1/15 = 2/3 + 2/5 (mod 1)
    assert Phase.of(1, 15) == Phase.of(2 * 4, 3) + Phase.of(3 * 4, 5)

    assert [(p.n, p.k) for p in decompose(9, 1)] == [(9, 1)]
    assert [(p.n, p.k) for p in decompose(45, 1)] == [(9, 5), (5, 4)]
    assert [(p.n, p.k) for p in decompose(1, 1)] == [(1, 0)]


def test_decompose_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        decompose(15, 5)


@given(n=odd_n, seed=st.integers(0, 10**6))
@settings(max_examples=100)
def test_decompose_twists_recombine(n, seed):
    k = coprime_pair(n, seed)
    parts = decompose(n, k)
    assert math.prod(p.n for p in parts) == n
    cat = build_cyclic(n, k)
    for j in range(n):
        total = Phase.of(0)
        for part in parts:
            cof = n // part.n
            a = j * pow(cof, -1, part.n) % part.n if part.n > 1 else 0
            total = total + part.twists[a]
        assert cat.twists[j] == total


# ------------------------------------------------------------ automorphisms


def test_braided_autos_examples():
    assert braided_autos(5, 1) == [1, 4]
    assert braided_autos(15, 1) == [1, 4, 11, 14]
    assert braided_autos(1, 1) == [0]


def test_braided_autos_preserve_twists():
    cat = build_cyclic(45, 2)
    for u in braided_autos(45, 2):
        for j in range(45):
            assert cat.twists[u * j % 45] == cat.twists[j]


def test_braided_autos_size_and_particle_hole():
    for n in range(1, 226, 2):
        autos = braided_autos(n, 1)
        assert autos == [u for u in units(n) if u * u % n == 1 % n]
        assert (n - 1) % n in autos
        assert len(autos) == 2 ** len(distinct_primes(n)) if n > 1 else len(autos) == 1


def test_braided_autos_match_search_oracle():
    """The CRT construction equals the scan of Z_n on every odd n < 2000
    and on sampled n < 10^7: a prime, a prime power, a product of seven
    primes, and log-uniform draws."""
    for n in range(1, 2000, 2):
        assert braided_autos(n, 1) == braided_autos_by_search(n)
    rng = random.Random(7)
    sampled = [9999991, 3**14, 3 * 5 * 7 * 11 * 13 * 17 * 19]
    sampled += [int(10 ** rng.uniform(3.3, 7)) | 1 for _ in range(4)]
    for n in sampled:
        assert braided_autos(n, 1) == braided_autos_by_search(n)


# ----------------------------------------------------------------- bosons


def test_find_bosons_examples():
    assert find_bosons(build_cyclic(9, 1)) == [0, 3, 6]
    assert find_bosons(build_cyclic(5, 1)) == [0]
    assert find_bosons(build_cyclic(25, 2)) == [0, 5, 10, 15, 20]


def test_find_bosons_matches_scan_oracle():
    """Built categories with square factors, and every twist variant of
    n < 41: residues without the particle-hole symmetry, twists moved off
    by one and twists over 2n."""
    cats = [build_cyclic(n, k) for n in (99999, 99225, 3**9) for k in (1, 2, n - 1)]
    cats += [v for n in range(1, 41) for k in range(n) for v in _twist_variants(n, k)]
    for cat in cats:
        assert find_bosons(cat) == bosons_by_scan(cat)


@given(n=odd_n, seed=st.integers(0, 10**6))
@settings(max_examples=80)
def test_bosons_form_a_subgroup(n, seed):
    bosons = set(find_bosons(build_cyclic(n, coprime_pair(n, seed))))
    assert 0 in bosons
    for a in bosons:
        for b in bosons:
            assert (a + b) % n in bosons


# ------------------------------------------------------------- condensation


def test_condense_lagrangian_example():
    outcome = condense_subgroup(build_cyclic(9, 1), {0, 3, 6})
    assert outcome.lagrangian
    assert outcome.quotient.n == 1
    assert outcome.perp == (0, 3, 6)


def test_condense_trivial_subgroup_is_identity():
    cat = build_cyclic(9, 1)
    outcome = condense_subgroup(cat, {0})
    assert not outcome.lagrangian
    assert outcome.quotient == cat


def test_condense_example_order_five_quotient():
    outcome = condense_subgroup(build_cyclic(45, 1), {0, 15, 30})
    assert not outcome.lagrangian
    assert outcome.quotient.n == 5
    assert outcome.generator == 3
    assert are_equivalent(5, outcome.quotient.k, 1)


def test_condense_precondition_errors_are_distinct():
    with pytest.raises(NotASubgroupError):
        condense_subgroup(build_cyclic(9, 1), {0, 3})  # 3+3=6 missing
    with pytest.raises(NotASubgroupError):
        condense_subgroup(build_cyclic(9, 1), {3, 6})  # no identity
    with pytest.raises(NonBosonError):
        condense_subgroup(build_cyclic(15, 1), {0, 5, 10})  # twist(5) = 2/3
    # Isotropy is only reachable with inconsistent twist data: claim every
    # label is a boson and condense the full group.
    zeros = tuple(Phase.of(0) for _ in range(9))
    fake = CyclicCategory(n=9, k=1, twists=zeros)
    with pytest.raises(NotIsotropicError):
        condense_subgroup(fake, set(range(9)))
    # A float or a string once raised a TypeError; True read as 1.
    for subgroup in ([0, 3.0, 6], ["0"], [0, True]):
        with pytest.raises(ValueError, match="subgroup elements must be integers"):
            condense_subgroup(build_cyclic(9, 1), subgroup)


def test_condense_rejects_twists_that_do_not_descend():
    # Both pass every precondition at H = {0}, so H-perp / H is all of Z_3.
    fraction_twist = CyclicCategory(3, 1, (Phase.of(0), Phase.of(4, 9), Phase.of(1, 3)))
    with pytest.raises(CondensationError, match="does not live on the quotient"):
        condense_subgroup(fraction_twist, {0})
    wrong_twist = CyclicCategory(3, 1, (Phase.of(0), Phase.of(1, 3), Phase.of(0)))
    with pytest.raises(CondensationError, match="descended twist mismatch at 2"):
        condense_subgroup(wrong_twist, {0})


def test_condensed_twists_descend_from_perp_cosets():
    cat = build_cyclic(45, 1)
    outcome = condense_subgroup(cat, {0, 15, 30})
    q, g = outcome.quotient, outcome.generator
    for x in range(q.n):
        assert q.twists[x] == cat.twists[x * g % cat.n]


# ----------------------------------------------------------- quantum double


def test_quantum_double_examples():
    for k in (1, 2, 4, 5, 7, 8):
        assert is_quantum_double(build_cyclic(9, k))
    assert not is_quantum_double(build_cyclic(15, 1))
    cat = build_cyclic(25, 1)
    assert find_lagrangian_subgroup(cat) == (0, 5, 10, 15, 20)
    assert is_quantum_double(cat)


def test_quantum_double_negative_cases():
    for n in (3, 5, 27):
        assert not is_quantum_double(build_cyclic(n, 1))


def _twist_variants(n: int, k: int):
    """Twists of C(n, k) as built, and corrupted in ways that reach every
    branch of condense_subgroup and find_lagrangian_subgroup."""
    yield _twists_with(n, k, {})
    yield CyclicCategory(n=n, k=k, twists=tuple(Phase.of(0) for _ in range(n)))
    yield _twists_with(n, k, {j: Fraction(j, 2) for j in range(n)})
    if n > 1:
        yield _twists_with(n, k, {1: Fraction(1, n * n)})
        yield _twists_with(n, k, {n - 1: Fraction(1, n)})
        yield _twists_with(n, k, {n // 2: Fraction(1, 2 * n)})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # a CondensationError, or build_cyclic refusing
        return type(exc), str(exc)


def test_subgroup_answers_match_search_oracles():
    """Every n <= 40 (even n included), every k (non-units included), built
    and corrupted twists: the Lagrangian subgroup and the outcome of
    condensing every subgroup and some non-subgroups, error messages
    included, equal those of the scans in tests/oracles.py."""
    for n in range(1, 41):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        subsets = [list(range(0, n, d)) for d in divisors]
        subsets += [[0, 1 % n, n - 1], [1 % n, 2 % n], [0, n // 2, n // 3]]
        for k in range(n):
            for variant in _twist_variants(n, k):
                assert find_lagrangian_subgroup(variant) == (
                    lagrangian_subgroup_by_search(variant)
                )
                for h in subsets:
                    assert _outcome(condense_subgroup, variant, h) == _outcome(
                        condense_by_search, variant, h
                    )


@given(n=st.integers(min_value=1, max_value=40), data=st.data())
@settings(max_examples=200)
def test_smatrix_matches_entrywise_oracle(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    cat = _twists_with(n, k, {})
    assert smatrix(cat) == smatrix_by_entries(cat)


def test_smatrix_matches_entrywise_oracle_at_mirror_bounds():
    """Fixed cases around the (n - 1)//2 mirror bound and the n//2 bound of
    the tiled phase list: even and odd n, k = 0 included.  Every entry is
    one of at most n shared Phase objects, whichever branch built its row,
    and entry (i, j) is the phase r/n with r = -2kij mod n, compared as
    ints: each shared object's reduced numerator and denominator give its
    r once, and the rows of r are compared with the formula."""
    for n in (*range(1, 7), 299, 300, 301):
        for k in {0, 1, 2, n - 1}:
            s = smatrix(_twists_with(n, k, {}))
            residue = {}
            for entry in {id(entry): entry for row in s for entry in row}.values():
                f = entry.frac
                assert type(entry) is Phase and 0 <= f.numerator < f.denominator, (n, k)
                assert n % f.denominator == 0, (n, k, entry)
                residue[id(entry)] = f.numerator * (n // f.denominator)
            assert len(residue) <= n, (n, k)
            expected = [[-2 * k * i * j % n for j in range(n)] for i in range(n)]
            assert [[residue[id(entry)] for entry in row] for row in s] == expected, (n, k)


# --------------------------------------------------------- modular relation


def test_modular_relations_hold():
    for n, k in ((3, 1), (5, 2), (9, 4), (45, 2), (99, 98)):
        assert verify_modular_relations(build_cyclic(n, k))


def test_modular_relations_decide_without_numpy():
    """The exact decision loads no numpy: checked in a fresh interpreter,
    since this one already holds numpy."""
    script = """
from modcat.cyclic import build_cyclic, verify_modular_relations
print(json.dumps([verify_modular_relations(build_cyclic(10007, 2)), "numpy" in sys.modules]))
"""
    assert fresh(script) == [True, False]


def test_modular_residuals_match_phase_oracle_bit_for_bit():
    """theta_j comes from the stored residue over its own denominator: the
    residuals equal those computed from the Phase twists exactly, for odd
    n < 60 and every unit k, also with one twist over the denominator 2n."""
    for n in range(1, 60, 2):
        for k in units(n):
            cat = build_cyclic(n, k)
            moved = list(cat.twists)
            moved[k % n] += Phase.of(1, 2 * n)
            for c in (cat, CyclicCategory(n, k, tuple(moved))):
                assert modular_relation_residuals(c) == modular_relation_residuals_by_phases(c)


def test_modular_residuals_match_matmul_oracle():
    """The FFT residuals agree with dense matrix products (one dense DFT
    per n, its columns permuted by k) to 1e-12 max(1, |oracle|), with the same numeric verdicts, and
    verify_modular_relations gives that verdict, for odd n < 120 and every
    k in [0, n), non-units included, and for (997, 5) and (1001, 2); each
    category as built and with one twist moved by 1/n, 1/(2n) or 1/7."""
    cases = {n: range(n) for n in range(1, 120, 2)} | {997: (5,), 1001: (2,)}
    verdicts = set()
    for n, ks in cases.items():
        table = [Phase.of(r, n) for r in range(n)]
        shifts = (Phase.of(1, n), Phase.of(1, 2 * n), Phase.of(1, 7))
        cats = []
        for k in ks:
            twists = [table[k * j * j % n] for j in range(n)]
            moved = twists[:]
            moved[k % n] += shifts[k % 3]
            cats += (CyclicCategory(n, k, tuple(twists)), CyclicCategory(n, k, tuple(moved)))
        for c, want in zip(cats, modular_relation_residuals_by_matmul(cats), strict=True):
            got = modular_relation_residuals(c)
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (n, c.k, got, want)
            verdict = modular_relations_by_residuals(want)
            assert modular_relations_by_residuals(got) is verdict
            assert verify_modular_relations(c) is verdict, (n, c.k)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _form_times_character(n: int, k: int, form: int, a: int, shift: Fraction,
                          tables: dict) -> CyclicCategory:
    """The category on (n, k) with twists form j^2 / n + a j / n + shift,
    its Phases read from tables[d], d = lcm(n, shift's denominator), which
    is made on first use and shared by later calls."""
    d = lcm(n, shift.denominator)
    if d not in tables:
        tables[d] = [Phase.of(r, d) for r in range(d)]
    table, per_n, c = tables[d], d // n, shift.numerator * (d // shift.denominator)
    return CyclicCategory(n, k, [table[((form * j + a) * j * per_n + c) % d] for j in range(n)])


def test_modular_relations_match_numeric_verdict_on_families():
    """verify_modular_relations gives the numeric verdict of
    modular_relation_residuals, and that verdict is the expected one, for
    odd n < 100 and every k in [0, n), on the twists k' j^2 / n + a j / n +
    c: every twist of the k form shifted by c = 1/3 or 2/3 (holds iff k is
    a unit) or by c = 1/6, 1/9 or 1/(2n) (never holds); a character
    a = 1 + k mod (n - 1) (holds iff a = 0 mod n and k is a unit); and a
    foreign form k' = 2k + 1 (holds iff k' = k mod n and k is a unit)."""
    seen = {True: 0, False: 0}
    for n in range(1, 100, 2):
        tables: dict[int, list[Phase]] = {}
        shifts = tuple(map(Fraction, (1, 2, 1, 1, 1), (3, 3, 6, 9, 2 * n)))
        for k in range(n):
            unit = gcd(k, n) == 1
            a, foreign = 1 + k % max(1, n - 1), 2 * k + 1
            cases = [(k, 0, c, unit and c.denominator == 3) for c in shifts]
            cases.append((k, a, Fraction(0), unit and a % n == 0))
            cases.append((foreign, 0, Fraction(0), unit and (foreign - k) % n == 0))
            for form, a, c, expected in cases:
                cat = _form_times_character(n, k, form, a, c, tables)
                verdict = modular_relations_by_residuals(modular_relation_residuals(cat))
                assert verify_modular_relations(cat) is verdict, (n, k, form, a, c)
                assert verdict is expected, (n, k, form, a, c)
                seen[verdict] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_modular_residuals_blocks_match_whole_matrix_bit_for_bit():
    """Taking (S T)^3 - (G / sqrt(n)) S^2 in row blocks, on one row per
    orbit, changes no bit of the residuals: the first equals the maximum
    of the whole error matrix over the orbit rows of the twist-fixing
    roots found by search, for odd n < 200 with k in {0, 1, 2, n - 1}, and
    for n in {997, 1001, 1025, 2047} (eight to four rows per block) with
    k = 2, each category as built and with one twist moved by 1/(2n)."""
    cases = [(n, k) for n in range(1, 200, 2) for k in {0, 1, 2 % n, n - 1}]
    cases += [(n, 2) for n in (997, 1001, 1025, 2047)]
    for n, k in cases:
        for c in (_twists_with(n, k, {}), _twists_with(n, k, {k % n: Fraction(1, 2 * n)})):
            assert modular_relation_residuals(c) == modular_residuals_unblocked(c), (n, k)


def _orbit_cases():
    """Odd n < 130 with k in {0, 1, 2, n - 1}, and n in {245, 329, 437,
    1001} with k = 2; each category as built and with the twist of label
    0, which every root fixes, moved by 1/(2n)."""
    cases = [(n, k) for n in range(1, 130, 2) for k in {0, 1, 2 % n, n - 1}]
    cases += [(n, 2) for n in (245, 329, 437, 1001)]
    for n, k in cases:
        yield from (_twists_with(n, k, {}), _twists_with(n, k, {0: Fraction(1, 2 * n)}))


def test_orbit_rows_hold_equal_entries():
    """Under a root u that fixes the twists, entry (u i, u l) of (S T)^3 -
    (G / sqrt(n)) S^2 equals entry (i, l) up to round-off, so the maximum
    over the orbit rows lies within 1e-13 of the whole maximum."""
    for c in _orbit_cases():
        n = c.n
        err = modular_error_matrix(c)
        labels = np.arange(n)
        for u in fixing_roots_by_search(c):
            moved = u * labels % n
            assert np.abs(err[np.ix_(moved, moved)] - err).max() <= 1e-13, (n, c.k, u)
        assert err.max() - modular_relation_residuals(c)[0] <= 1e-13, (n, c.k)


def test_twist_fixing_roots_choose_the_rows():
    """A built category is fixed by all 2^s roots; at n = 105 moving the
    twists of 1 and -1 together leaves {1, -1}, and moving the twist of 1
    alone leaves {1}, every row taken, with the first residual the whole
    matrix maximum bit for bit.  Residues are compared as integers, also
    past 2^63, where numpy would compare a mix of ints as floats."""
    for n in range(1, 300, 2):
        for k in {1, 2 % n, n - 1}:
            cat = build_cyclic(n, k)
            group = braided_autos(n, k)
            assert fixing_roots_by_search(cat) == group, (n, k)
            assert _orbit_rows(cat).tolist() == orbit_rows_by_search(n, group)
    for n, orbits in ((101, 51), (437, 120), (763, 220), (1001, 168)):
        assert len(_orbit_rows(build_cyclic(n, 2))) == orbits
    move = Fraction(1, 210)
    pair, one = _twists_with(105, 2, {1: move, 104: move}), _twists_with(105, 2, {1: move})
    assert fixing_roots_by_search(pair) == [1, 104]
    assert _orbit_rows(pair).tolist() == orbit_rows_by_search(105, [1, 104])
    assert len(orbit_rows_by_search(105, [1, 104])) == 53
    assert fixing_roots_by_search(one) == [1]
    assert _orbit_rows(one).tolist() == list(range(105))
    assert modular_relation_residuals(one)[0] == float(modular_error_matrix(one).max())
    # Residues 3 * 2^62 - 3 and - 6 over 3 * 2^62 are equal as floats only.
    wide = CyclicCategory(3, 1, [Phase.of(0), Phase.of(2**62 - 1, 2**62),
                                 Phase.of(2**62 - 2, 2**62)])
    assert 2**63 < wide.denominator < 2**64 and fixing_roots_by_search(wide) == [1]
    assert _orbit_rows(wide).tolist() == [0, 1, 2]
    huge = CyclicCategory(3, 1, [Phase.of(0), Phase.of(1, 2**70), Phase.of(1, 2**70)])
    assert _orbit_rows(huge).tolist() == [0, 1]


def _traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_modular_residuals_peak_under_2mb_at_n_1001_and_3001():
    """The residuals take (S T)^3 in blocks of about 2^13 entries, so the
    traced peak stays O(n): under 2 MB at n = 1001 and n = 3001, where one
    n x n complex array is 16 MB and 144 MB."""
    modular_relation_residuals(build_cyclic(3, 1))  # numpy.fft is imported outside the trace
    for n in (1001, 3001):
        cat = build_cyclic(n, 2)
        assert _traced_peak(lambda: modular_relation_residuals(cat)) < 2 * 2**20, n


def test_modular_residuals_refuse_even_n_before_any_block():
    """An even-n category built directly is refused by the Gauss sum before
    any n x n work: a traced peak under 1 MB at n = 3000."""
    modular_relation_residuals(build_cyclic(3, 1))  # numpy.fft is imported outside the trace
    cat = _twists_with(3000, 1, {})

    def call():
        with pytest.raises(UnsupportedModulusError):
            modular_relation_residuals(cat)

    assert _traced_peak(call) < 2**20


# ------------------------------------------------------------------- JSON


def test_category_json_roundtrip():
    cat = build_cyclic(45, 2)
    data = cat.to_json_dict()
    assert data["twists"][0] == "0/1"
    assert CyclicCategory.from_json_dict(data) == cat


def _assert_boundary_forms(cat: CyclicCategory, twists: tuple[Phase, ...]) -> None:
    """cat holds exactly `twists`, one shared Phase per distinct residue,
    and each boundary form gives it back."""
    assert cat.twists == twists
    assert twists == tuple(Phase.of(r, cat.denominator) for r in cat.residues)
    assert len(set(map(id, cat.twists))) == len(set(cat.residues))
    assert cat.to_json_dict()["twists"] == [str(t) for t in twists]
    loaded = CyclicCategory.from_json_dict(cat.to_json_dict())
    assert loaded == cat and loaded.twists == twists
    assert replace(cat, twists=twists) == cat
    for copied in (pickle.loads(pickle.dumps(cat)), copy.deepcopy(cat)):
        assert copied == cat and hash(copied) == hash(cat)
    assert " at 0x" not in repr(cat)


def test_residue_form_matches_phase_twists():
    """For odd n < 100 and every unit k: the category built from residues
    equals the one built from its Phase twists, and JSON, replace, pickle,
    deepcopy and repr keep it, also with twists over the foreign
    denominators 2n, 7 and 9."""
    for n in range(1, 100, 2):
        for k in units(n):
            cat = build_cyclic(n, k)
            twists = tuple(Phase.of(k * j * j, n) for j in range(n))
            again = CyclicCategory(n, k, twists)
            assert again == cat and hash(again) == hash(cat) and cat.denominator == n
            _assert_boundary_forms(cat, twists)
            moved = list(twists)  # three labels moved off the denominator n
            for j, den in zip((k, 2 * k, 3 * k), (2 * n, 7, 9)):
                moved[j % n] += Phase.of(1, den)
            foreign = CyclicCategory(n, k, tuple(moved))
            assert foreign.denominator == math.lcm(*(t.frac.denominator for t in moved))
            _assert_boundary_forms(foreign, tuple(moved))
    assert pickle.loads(pickle.dumps(cat)).twists == cat.twists  # rebuilt on use


def test_twists_share_one_phase_per_distinct_residue():
    """A built category hands out one Phase, and one JSON twist string, per
    distinct residue: (n + 1) / 2 for prime n, far fewer for n with square
    factors."""
    for n, distinct in ((99991, 49996), (99225, 7502), (45, 12), (1, 1)):
        cat = build_cyclic(n, 2)
        assert len(set(cat.residues)) == distinct
        assert len(set(map(id, cat.twists))) == distinct
        assert cat.twists[1 % n] is cat.twists[-1]  # theta_1 = theta_{n-1}
        texts = cat.to_json_dict()["twists"]
        assert len(texts) == n and len(set(map(id, texts))) == distinct


def test_twists_traced_peak_under_14mb_at_n_99991():
    """Shared slotted Phases keep the twists of C(99991, 2) under 14 MB
    traced; one fresh dict-backed Phase per label took about 19 MB."""
    cat = build_cyclic(99991, 2)
    assert _traced_peak(lambda: cat.twists) < 14 * 10**6


_GOOD_CATEGORY = {"n": 3, "k": 1, "twists": ["0/1", "1/3", "1/3"]}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n": 3.9}, "n must be a positive integer"),
        ({"n": "3"}, "n must be a positive integer"),
        ({"n": True}, "n must be a positive integer"),
        ({"n": 0, "twists": []}, "n must be a positive integer"),
        ({"k": True}, "k must be an integer"),
        ({"k": "1"}, "k must be an integer"),
        ({"k": 1.0}, "k must be an integer"),
        ({"twists": "0/1 1/3 1/3"}, "twists must be a list"),
        ({"twists": ["0/1", "1/0", "1/3"]}, "twist '1/0' is not"),
        ({"twists": ["0/1", "1/00", "1/3"]}, "twist '1/00' is not"),
        ({"twists": ["0/1", "1/-3", "1/3"]}, "twist '1/-3' is not"),
        ({"twists": ["0/1", " 1/3", "1/3"]}, "twist ' 1/3' is not"),
        ({"twists": ["0/1", "1/3/1", "1/3"]}, "twist '1/3/1' is not"),
        ({"twists": ["0/1", 0.5, "1/3"]}, "twist 0.5 is not"),
    ],
)
def test_category_json_refuses_malformed_fields(change, message):
    with pytest.raises(ValueError, match=message):
        CyclicCategory.from_json_dict({**_GOOD_CATEGORY, **change})


def test_category_constructor_refuses_what_the_reader_refuses():
    # Both were accepted: the first wrote "k": 1.5, which the reader refuses,
    # and the second raised a ZeroDivisionError in verify_balancing.
    with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
        CyclicCategory(3, 1.5, [Phase.of(0)] * 3)
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        CyclicCategory(0, 1, ())
    for n, k in ((3.0, 1), (True, 1), (1, True)):
        with pytest.raises(ValueError, match="must be"):
            CyclicCategory(n, k, [Phase.of(0)])
    # Twists that are not Phase values raised AttributeError or TypeError.
    with pytest.raises(ValueError, match="twist of label 0 must be a Phase, got 0"):
        CyclicCategory(3, 1, [0, 0, 0])
    with pytest.raises(ValueError, match=r"label 0 must be a Phase, got Fraction\(0, 1\)"):
        CyclicCategory(3, 1, [Fraction(0)] * 3)
    with pytest.raises(ValueError, match="twist of label 2 must be a Phase, got '1/3'"):
        CyclicCategory(3, 1, [Phase.of(0), Phase.of(1, 3), "1/3"])
    with pytest.raises(ValueError, match="twists must be a sequence of Phase values, got None"):
        CyclicCategory(3, 1, None)


def test_category_json_refuses_non_object_and_missing_keys():
    with pytest.raises(ValueError, match="must be a JSON object"):
        CyclicCategory.from_json_dict([3, 1, []])
    for key in _GOOD_CATEGORY:
        data = {k: v for k, v in _GOOD_CATEGORY.items() if k != key}
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            CyclicCategory.from_json_dict(data)


def test_category_json_accepts_integer_and_negative_twists():
    cat = CyclicCategory.from_json_dict({"n": 3, "k": 1, "twists": ["0", "-2/3", "4/03"]})
    assert cat == build_cyclic(3, 1)


def test_category_rejects_wrong_twist_count():
    twists = build_cyclic(5, 1).twists
    for bad in (twists[:4], twists + (Phase.of(0),)):
        with pytest.raises(ValueError, match="one twist per label"):
            CyclicCategory(n=5, k=1, twists=bad)
        data = {"n": 5, "k": 1, "twists": [str(t) for t in bad]}
        with pytest.raises(ValueError, match="one twist per label"):
            CyclicCategory.from_json_dict(data)

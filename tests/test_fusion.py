import copy
import itertools
import math
import pickle
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from modcat import fusion
from modcat._value import FrozenInstanceError
from modcat.fusion import (
    FusionRing,
    InvalidFusionRingError,
    _closure,
    _generators,
    _packed_products,
    _row_witness,
    dihedral_fusion,
    fp_dimensions,
    global_dimension,
    pointed_cyclic_ring,
    subring_generated,
    universal_grading,
    verify_fusion_ring,
)
from modcat.metaplectic import condense_z2, so_n2_fusion
from tests.oracles import (
    associativity_violations,
    closure_by_all_pairs,
    dihedral_character_coeffs,
    fibonacci_ring,
    first_axiom_witnesses,
    fp_identity_residual,
    grading_components_by_search,
    rank3_non_integral_ring,
    row_witness_by_dicts,
    small_deligne_products,
    subring_by_filter,
    with_coefficient_by_constructor,
)


def test_pointed_ring_passes_all_axioms():
    report = verify_fusion_ring(pointed_cyclic_ring(5))
    assert report.all_passed
    assert [c.name for c in report.checks] == [
        "unit",
        "dual",
        "commutativity",
        "associativity",
    ]


def test_so7_passes_all_axioms():
    assert verify_fusion_ring(so_n2_fusion(7)).all_passed


def test_incremented_coefficient_breaks_associativity():
    ring = so_n2_fusion(7)
    broken = ring.with_coefficient(4, 5, 6, ring.n(4, 5, 6) + 1)
    report = verify_fusion_ring(broken)
    check = report.check("associativity")
    assert not check.passed
    i, j, k, l = check.witness
    lhs = sum(broken.n(i, j, m) * broken.n(m, k, l) for m in range(broken.rank))
    rhs = sum(broken.n(j, k, m) * broken.n(i, m, l) for m in range(broken.rank))
    assert lhs != rhs


def test_vectorized_check_matches_bruteforce_oracle():
    failing = 0
    for ring in (pointed_cyclic_ring(6), so_n2_fusion(5), dihedral_fusion(9)):
        assert associativity_violations(ring) == []
        assert verify_fusion_ring(ring).all_passed
        for i, j, k in ((4, 4, 4), (1, 2, 3), (2, 3, 1), (3, 3, 0), (5, 1, 5)):
            for m in (0, ring.n(i, j, k) + 1):
                broken = ring.with_coefficient(i, j, k, m)
                oracle_bad = associativity_violations(broken)
                check = verify_fusion_ring(broken).check("associativity")
                assert check.passed == (not oracle_bad)
                if oracle_bad:
                    failing += 1
                    assert check.witness == min(oracle_bad)
    assert failing >= 20


def corrupted_rings(count: int, seed: int):
    """Pointed, dihedral and SO(N)_2 rings of rank <= 12, each with 1-3
    coefficients set to 0, 1 or 2 or bumped by one; about a third also get
    a shuffled dual."""
    rng = random.Random(seed)
    bases = (
        [pointed_cyclic_ring(n) for n in range(1, 13)]
        + [dihedral_fusion(n) for n in range(3, 22, 2)]
        + [so_n2_fusion(n) for n in range(3, 18, 2)]
    )
    for _ in range(count):
        ring = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            i, j, k = (rng.randrange(ring.rank) for _ in range(3))
            m = rng.choice((0, 1, 2, ring.n(i, j, k) + 1))
            ring = ring.with_coefficient(i, j, k, m)
        if rng.random() < 1 / 3:
            dual = list(ring.dual)
            rng.shuffle(dual)
            ring = FusionRing(ring.rank, ring.labels, dual, ring.coeffs)
        yield ring


def _dual_only_corruption() -> FusionRing:
    """SO(5)_2 with N_{Y1 Y2}^{Y1} = N_{Y2 Y1}^{Y1} = 2: unit and
    commutativity hold, N_ij^0 = delta_{j, i*} too, and only
    N_ij^k = N_{i* k}^j fails, first at (Y1, Y1, Y2)."""
    ring = so_n2_fusion(5).with_coefficient(4, 5, 4, 2).with_coefficient(5, 4, 4, 2)
    report = verify_fusion_ring(ring)
    assert report.check("unit").passed and report.check("commutativity").passed
    assert report.check("dual").witness == (4, 4, 5)
    return ring


def _third_dual_law_corruption() -> FusionRing:
    """Z_5 with N_{1 2}^3 = N_{4 3}^2 = 2: unit, N_ij^0 = delta_{j, i*} and
    N_ij^k = N_{i* k}^j hold, commutativity fails, and the dual witness
    comes from N_ij^k = N_{k j*}^i, at (1, 2, 3)."""
    ring = pointed_cyclic_ring(5).with_coefficient(1, 2, 3, 2).with_coefficient(4, 3, 2, 2)
    report = verify_fusion_ring(ring)
    assert report.check("unit").passed and not report.check("commutativity").passed
    assert report.check("dual").witness == (1, 2, 3)
    return ring


def cyclic_dual_rings(count: int, seed: int):
    """Rings of rank 4-6 whose dual has a 3-cycle, so it is not an
    involution, with N_ij^0 = delta_{j, i*} restored: the first part of the
    dual law holds, and the other two find the witness.  About half also
    get a coefficient off the unit column set to 1 or 2."""
    rng = random.Random(seed)
    bases = (
        [pointed_cyclic_ring(n) for n in (4, 5, 6)]
        + [dihedral_fusion(n) for n in (5, 7, 9)]
        + [so_n2_fusion(3), so_n2_fusion(5)]
    )
    for _ in range(count):
        ring = rng.choice(bases)
        a, b, c = rng.sample(range(ring.rank), 3)
        dual = list(range(ring.rank))
        dual[a], dual[b], dual[c] = b, c, a
        coeffs = {key: m for key, m in ring.coeffs.items() if key[2] != 0}
        coeffs.update(((i, d, 0), 1) for i, d in enumerate(dual))
        if rng.random() < 1 / 2:
            i, j = rng.randrange(ring.rank), rng.randrange(ring.rank)
            coeffs[i, j, rng.randrange(1, ring.rank)] = rng.choice((1, 2))
        yield FusionRing(ring.rank, ring.labels, dual, coeffs)


def _rank3_rings_with_unit_column():
    """Every commutative rank-3 ring with unit 0, multiplicities 0-2 and
    N_ij^0 = delta_{j, i*}, for both involutions of the indices."""
    pairs = [(a, b, k) for a, b in ((1, 1), (1, 2), (2, 2)) for k in (1, 2)]
    for dual in ((0, 1, 2), (0, 2, 1)):
        for multiplicities in itertools.product(range(3), repeat=len(pairs)):
            coeffs = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1}
            coeffs.update(((i, dual[i], 0), 1) for i in (1, 2))
            for (a, b, k), m in zip(pairs, multiplicities):
                if m:
                    coeffs[a, b, k] = coeffs[b, a, k] = m
            yield FusionRing(3, ("1", "a", "b"), dual, coeffs)


def swapped_dual_rings(count: int, seed: int):
    """Rings of rank 2-12 that pass every axiom, with two dual entries swapped."""
    rng = random.Random(seed)
    bases = [ring for ring in _built_rings() + small_deligne_products() if 1 < ring.rank <= 12]
    bases += [ring for ring in _rank3_rings_with_unit_column()
              if verify_fusion_ring(ring).all_passed]
    for _ in range(count):
        ring = rng.choice(bases)
        a, b = rng.sample(range(ring.rank), 2)
        dual = list(ring.dual)
        dual[a], dual[b] = dual[b], dual[a]
        yield FusionRing(ring.rank, ring.labels, dual, ring.coeffs)


def test_axiom_witnesses_match_row_major_oracles():
    failures, stages = Counter(), Counter()
    for ring in [
        *corrupted_rings(300, seed=10),
        *_wide_rings(),
        _dual_only_corruption(),
        _third_dual_law_corruption(),
        *cyclic_dual_rings(200, seed=11),
        *swapped_dual_rings(300, seed=17),
    ]:
        expected = first_axiom_witnesses(ring)
        expected["associativity"] = min(associativity_violations(ring), default=None)
        report = verify_fusion_ring(ring)
        assert {c.name: c.witness for c in report.checks} == expected
        assert all(c.passed == (c.witness is None) for c in report.checks)
        failures.update(c.name for c in report.checks if not c.passed)
        stages.update(_witness_stage(ring, c) for c in report.checks if not c.passed)
    assert set(failures) == set(expected)
    assert min(failures.values()) >= 20, failures
    assert len(stages) == 7 and min(stages.values()) >= 10, stages


def _witness_stage(ring: FusionRing, check) -> str:
    """The stage of a failing check that gives its witness.  The stages run
    in order, so a witness breaks the law of its own stage and of no earlier
    one: a unit witness in row 0 comes from the row-0 stage, and a dual
    witness from the first of its three parts that it breaks."""
    if check.name not in ("unit", "dual"):
        return check.name
    i, j, k = check.witness
    if check.name == "unit":
        return "unit row 0" if i == 0 else "unit column 0"
    if k == 0 and ring.n(i, j, 0) != (j == ring.dual[i]):
        return "dual part 1"
    return "dual part 2" if ring.n(i, j, k) != ring.n(ring.dual[i], k, j) else "dual part 3"


def _generator_rows_decide_dual_law(ring: FusionRing) -> bool:
    """True for a ring that passes unit, commutativity, associativity and
    N_ij^0 = delta_{j, i*}, after checking that the generator rows of
    N_ij^k = N_{i* k}^j give the full row scan's verdict and the report's;
    False for any other ring."""
    report = verify_fusion_ring(ring)
    if not all(report.check(name).passed for name in ("unit", "commutativity", "associativity")):
        return False
    if any(ring.n(i, j, 0) != (j == ring.dual[i]) for i in range(ring.rank) for j in range(ring.rank)):
        return False
    table, w = _packed_products(ring)

    def passes(i: int) -> bool:
        return fusion._row_difference(i, table[i], fusion._dual_row(ring, i, w), w) is None

    by_generators = all(map(passes, ring._unit_generators))
    by_full_scan = all(map(passes, range(ring.rank)))
    assert by_generators == by_full_scan == report.check("dual").passed
    return True


def test_dual_law_decided_by_generator_rows_alone():
    # Each ring counted here passes unit, commutativity, associativity and
    # N_ij^0 = delta_{j, i*}; only N_ij^k = N_{i* k}^j on the generator
    # rows can find that it fails the dual law.
    example = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1,
               (1, 2, 0): 1, (2, 1, 0): 1, (1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1,
               (2, 2, 1): 1, (2, 2, 2): 1}  # x1^2 = x2, x1 x2 = 1 + x1, x2^2 = x1 + x2
    only_dual = []
    for ring in _rank3_rings_with_unit_column():
        if _generator_rows_decide_dual_law(ring):
            expected = first_axiom_witnesses(ring)["dual"]
            assert verify_fusion_ring(ring).check("dual").witness == expected
            if expected is not None:
                only_dual.append(ring)
    assert len(only_dual) == 6
    assert all(ring.dual == (0, 2, 1) for ring in only_dual)
    named = FusionRing(3, ("1", "a", "b"), (0, 2, 1), example)
    assert named in only_dual
    assert verify_fusion_ring(named).check("dual").witness == (1, 1, 1)
    # The random rings that meet the assumptions all pass the law; the
    # helper still checks that the generator rows say so.
    decided = sum(
        map(_generator_rows_decide_dual_law,
            [*corrupted_rings(1200, seed=5), *swapped_dual_rings(300, seed=17)])
    )
    assert decided >= 50, decided


def test_failing_dual_law_peaks_under_1mb_at_so151():
    """A failing dual law reads only the packed table and the fuse index:
    SO(151)_2 with N_77^0 = 2 verifies at a traced peak under 1 MB, where
    one copy of its coefficient map keyed by (i, j, k) is about 1 MB."""
    ring = so_n2_fusion(151).with_coefficient(7, 7, 0, 2)
    ring._unit_generators  # computed outside the trace
    tracemalloc.start()
    try:
        report = verify_fusion_ring(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.check("dual").witness == (7, 7, 0)
    assert peak < 2**20, peak


def test_generator_rows_decide_associativity():
    # The rows that pass form a subspace closed under products, with or
    # without a unit, so the generator rows decide what the full scan does.
    outcomes = Counter()
    for ring in corrupted_rings(1200, seed=5):
        report = verify_fusion_ring(ring)
        unit, commutative = report.check("unit").passed, report.check("commutativity").passed
        generators = _generators(ring, {0} if unit else set())
        packed = _packed_products(ring)
        by_generators = all(
            _row_witness(ring, g, packed, commutative) is None for g in generators
        )
        by_full_scan = all(
            _row_witness(ring, i, packed, commutative) is None for i in range(ring.rank)
        )
        assert by_generators == by_full_scan
        outcomes[unit, by_full_scan] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 20, outcomes


def _wide_rings():
    """The rank-2 rings of test_multiplicity_exactness_bound, whose products
    need digits of 61 and 81 bits, and the rank-1 ring with no coefficients."""
    big = 2**30
    skewed = {(0, 0, 0): big + 2, (0, 0, 1): 1, (0, 1, 1): big + 3, (1, 0, 1): big + 3}
    golden = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 2**40}
    return [
        FusionRing(2, ("a", "b"), (0, 1), {**skewed, (1, 1, 1): big + 1}),
        FusionRing(2, ("1", "x"), (0, 1), golden),
        FusionRing(1, ("1",), (0,), {}),
    ]


def test_packed_join_matches_dict_join():
    # A commutative ring's scan shares the right side of (j, k) and (k, j);
    # the others compute every right side.
    failing = Counter()
    for ring in [*corrupted_rings(1000, seed=13), *_wide_rings()]:
        commutative = verify_fusion_ring(ring).check("commutativity").passed
        packed = _packed_products(ring)
        for i in range(ring.rank):
            witness = _row_witness(ring, i, packed, commutative)
            assert witness == row_witness_by_dicts(ring, i)
            failing[commutative] += witness is not None
    assert min(failing[True], failing[False]) >= 200, failing
    assert _packed_products(_wide_rings()[1])[1] == 81  # (2^40 + 1) 2^40 < 2^81


def test_generators_of_the_families():
    for n in (5, 7, 31):
        assert _generators(so_n2_fusion(n), {0}) == [1, 2, 4]  # Z, X1, Y1
        assert _generators(dihedral_fusion(n), {0}) == [1, 2]  # Z, Y1
        assert _generators(pointed_cyclic_ring(n), {0}) == [1]


def test_rings_keep_no_dense_arrays():
    import numpy as np

    for ring in (so_n2_fusion(9), dihedral_fusion(7), pointed_cyclic_ring(2)):
        assert verify_fusion_ring(ring).all_passed
        fp_dimensions(ring)
        condense_z2(ring, 1)  # index 1 is an involution in each
        held = [name for name, v in vars(ring).items() if isinstance(v, np.ndarray)]
        assert held == []


def test_multiplicity_exactness_bound():
    # Python ints keep every axiom sum exact, so there is no bound on the
    # multiplicities.  This ring fails associativity at (0, 0, 1, 1), where
    # the sides are (2^30+2)(2^30+3) + (2^30+1) and (2^30+3)^2: they differ
    # by 2, which float64 sums would round away.
    big = 2**30
    ring = FusionRing(
        rank=2,
        labels=("a", "b"),
        dual=(0, 1),
        coeffs={
            (0, 0, 0): big + 2,
            (0, 0, 1): 1,
            (0, 1, 1): big + 3,
            (1, 0, 1): big + 3,
            (1, 1, 1): big + 1,
        },
    )
    check = verify_fusion_ring(ring).check("associativity")
    assert check.witness == min(associativity_violations(ring)) == (0, 0, 1, 1)

    def golden(m):  # x^2 = 1 + m x: a valid rank-2 ring
        coeffs = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): m}
        return FusionRing(rank=2, labels=("1", "x"), dual=(0, 1), coeffs=coeffs)

    for m in (2**26 - 1, 2**26, 2**40):
        ring = golden(m)
        assert verify_fusion_ring(ring).all_passed
        assert fp_dimensions(ring)[1] == pytest.approx((m + math.sqrt(m * m + 4)) / 2)


def test_ring_is_immutable_and_verified_once():
    ring = pointed_cyclic_ring(4)
    report = verify_fusion_ring(ring)
    assert verify_fusion_ring(ring) is report
    with pytest.raises(TypeError):
        ring.coeffs[(0, 0, 0)] = 2
    with pytest.raises(FrozenInstanceError):
        ring.rank = 5
    with pytest.raises(FrozenInstanceError):
        ring._report = report
    broken = ring.with_coefficient(0, 1, 1, 2)
    assert not verify_fusion_ring(broken).check("unit").passed
    assert verify_fusion_ring(ring) is report and report.all_passed
    listed = FusionRing(rank=1, labels=["1"], dual=[0], coeffs={(0, 0, 0): 1})
    assert listed.labels == ("1",) and listed.dual == (0,)
    assert pickle.loads(pickle.dumps(ring)) == copy.deepcopy(ring) == ring


def test_coeffs_is_a_read_only_view_of_the_fuse_index():
    ring = so_n2_fusion(5)  # rank 6
    coeffs = ring.coeffs
    assert len(coeffs) == len(dict(coeffs.items())) == 58
    assert coeffs[(2, 3, 1)] == coeffs.get((2, 4, 3)) == 1 and (4, 4, 0) in coeffs
    # Absent or out of range: a KeyError, as in a dict; negative indices do not wrap.
    for key in ((0, 1, 0), (6, 0, 6), (-1, 0, 5), (0, -6, 0), (0, 0), "key", None):
        assert key not in coeffs and coeffs.get(key, 0) == 0
        with pytest.raises(KeyError):
            coeffs[key]
    assert ring.n(-1, 0, 5) == 0
    # items() runs row-major over (i, j); iteration gives the same keys.
    keys = [key for key, _ in coeffs.items()]
    assert [key[:2] for key in keys] == sorted(key[:2] for key in keys)
    assert list(coeffs) == keys and list(coeffs.keys()) == keys
    as_dict = dict(coeffs.items())
    assert coeffs == as_dict and as_dict == coeffs
    assert coeffs == FusionRing(6, ring.labels, ring.dual, as_dict).coeffs
    assert coeffs != ring.with_coefficient(4, 4, 0, 0).coeffs
    assert coeffs != {**as_dict, (4, 4, 0): 2} and coeffs != list(as_dict)
    with pytest.raises(TypeError):
        coeffs[(0, 0, 0)] = 1
    with pytest.raises(TypeError):
        del coeffs[(0, 0, 0)]
    with pytest.raises(TypeError):
        hash(ring)  # as with the dict it replaced


def test_equal_products_share_one_dict():
    ring = so_n2_fusion(9)  # Y_1..Y_4 at indices 4..7
    assert ring.fuse(4, 5) is ring.fuse(5, 4)
    assert len({id(ring.fuse(x, y)) for x in (2, 3) for y in range(4, 8)} | {
        id(ring.fuse(y, x)) for x in (2, 3) for y in range(4, 8)}) == 1
    pointed = pointed_cyclic_ring(7)
    assert len({id(pointed.fuse(i, j)) for i in range(7) for j in range(7)}) == 7
    # A copy shares every product but the one it changes.
    copied = ring.with_coefficient(4, 5, 0, 1)
    assert copied.fuse(4, 5) is not ring.fuse(4, 5) and copied.fuse(5, 4) is ring.fuse(5, 4)
    assert ring.fuse(4, 5) == {6: 1, 4: 1} and copied.fuse(4, 5) == {6: 1, 4: 1, 0: 1}
    assert len(copied.coeffs) == len(ring.coeffs) + 1
    assert copied._rows[6] is ring._rows[6] and copied._rows[4] is not ring._rows[4]
    # The subring's index keeps the parent's sharing.
    sub = subring_generated(ring, {4})
    assert sub == dihedral_fusion(9) and sub.fuse(2, 3) is sub.fuse(3, 2)


def test_so151_keeps_one_fuse_index():
    """A verified, FP'd and graded SO(151)_2 stores its rules once, with
    equal products sharing a dict: about 0.7 MiB under tracemalloc, where
    a coefficient dict beside an unshared index kept 2.7 MiB.  A
    with_coefficient copy shares all but one product dict and one row:
    about 3 KB."""
    build = so_n2_fusion.__wrapped__  # a fresh ring, outside the cache
    tracemalloc.start()
    try:
        ring = build(151)
        verify_fusion_ring(ring), fp_dimensions(ring), universal_grading(ring)
        kept = tracemalloc.get_traced_memory()[0]
        copied = ring.with_coefficient(7, 7, 0, 2)
        added = tracemalloc.get_traced_memory()[0] - kept
    finally:
        tracemalloc.stop()
    assert copied.n(7, 7, 0) == 2 and ring.n(7, 7, 0) == 1
    assert kept <= 1.2 * 2**20, kept
    assert added <= 0.1 * 2**20, added


def test_loaded_so151_keeps_one_shared_fuse_index():
    """SO(151)_2 loaded from its JSON shares j (x) i with an equal i (x) j,
    as the built ring does: about 0.87 MiB under tracemalloc after
    verification, FP dimensions and grading, where an index with a dict
    for every nonzero product kept 1.53 MiB."""
    data = so_n2_fusion(151).to_json_dict()
    tracemalloc.start()
    try:
        ring = FusionRing.from_json_dict(data)
        verify_fusion_ring(ring), fp_dimensions(ring), universal_grading(ring)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ring.fuse(4, 9) is ring.fuse(9, 4)
    assert kept <= 2**20, kept


def test_pickle_and_deepcopy_keep_the_fuse_index():
    """Copies keep the index with its shared dicts: the builder's one dict
    for every X (x) Y_j, not only the transposes that loading shares."""
    ring = so_n2_fusion(15)  # X1, X2 at indices 2, 3; Y_1..Y_7 at 4..10
    shared = len({id(p) for row in ring._rows for p in row})
    for copied in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
        assert copied == ring and copied._rows is not ring._rows
        assert copied.fuse(2, 4) is copied.fuse(4, 2) is copied.fuse(3, 10)
        assert len({id(p) for row in copied._rows for p in row}) == shared
        assert verify_fusion_ring(copied).to_json_dict() == verify_fusion_ring(ring).to_json_dict()
        assert fp_dimensions(copied) == fp_dimensions(ring)


def test_with_coefficient_on_a_loaded_ring_keeps_the_transpose():
    """A loaded ring shares j (x) i with an equal i (x) j; overriding
    N_ij^k copies i (x) j alone and leaves j (x) i as it was."""
    ring = FusionRing.from_json_dict(so_n2_fusion(9).to_json_dict())
    assert ring.fuse(4, 5) is ring.fuse(5, 4)
    for i, j, k, m in ((4, 5, 0, 1), (4, 5, 6, 0), (5, 4, 7, 3), (2, 6, 2, 0)):
        before = dict(ring.fuse(j, i))
        copied = ring.with_coefficient(i, j, k, m)
        assert copied.fuse(j, i) == before and ring.fuse(j, i) == before
        assert copied.n(i, j, k) == m and not verify_fusion_ring(copied).all_passed


def test_unit_and_dual_failures_have_witnesses():
    ring = pointed_cyclic_ring(3)
    no_unit = ring.with_coefficient(0, 1, 1, 0).with_coefficient(0, 1, 2, 1)
    report = verify_fusion_ring(no_unit)
    assert not report.check("unit").passed
    assert report.check("unit").witness is not None

    bad_dual = FusionRing(
        rank=3,
        labels=("[0]", "[1]", "[2]"),
        dual=(0, 1, 2),  # wrong: dual of [1] is [2]
        coeffs=dict(pointed_cyclic_ring(3).coeffs),
    )
    report = verify_fusion_ring(bad_dual)
    assert not report.check("dual").passed


def test_commutativity_failure():
    ring = pointed_cyclic_ring(4)
    broken = ring.with_coefficient(1, 2, 3, 0).with_coefficient(1, 2, 1, 1)
    report = verify_fusion_ring(broken)
    assert not report.check("commutativity").passed


def test_structural_validation_at_construction():
    with pytest.raises(ValueError):
        FusionRing(rank=0, labels=(), dual=(), coeffs={})
    with pytest.raises(ValueError):
        FusionRing(rank=2, labels=("1",), dual=(0, 1), coeffs={})
    with pytest.raises(ValueError):
        FusionRing(rank=2, labels=("1", "g"), dual=(0, 0), coeffs={})
    with pytest.raises(ValueError):
        FusionRing(rank=2, labels=("1", "g"), dual=(0, 1), coeffs={(0, 0, 5): 1})
    with pytest.raises(ValueError):
        FusionRing(rank=2, labels=("1", "g"), dual=(0, 1), coeffs={(0, 0, 0): -1})
    # Entries that are not of type int once passed and crashed verification.
    for dual, coeffs in (
        ((0,), {(0, 0, 0): 1.0}),
        ((0,), {(0, 0, 0): True}),
        ((0,), {(0.0, 0, 0): 1}),
        ((0,), {(0, False, 0): 1}),
        ((0.0,), {(0, 0, 0): 1}),
        ((True,), {}),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            FusionRing(rank=1, labels=("1",), dual=dual, coeffs=coeffs)
    # Labels that are not strings were accepted and written as JSON that
    # from_json_dict refuses.
    for labels in ((1,), (None,), (b"1",)):
        with pytest.raises(ValueError, match="labels must be strings"):
            FusionRing(1, labels, (0,), {(0, 0, 0): 1})
    ring = pointed_cyclic_ring(3)
    for key, m in (((0, 1, 1), 2.0), ((0, 1, 1), True), ((0, 1.0, 1), 1)):
        with pytest.raises(ValueError, match="must be integers"):
            ring.with_coefficient(*key, m)


@given(st.integers(min_value=1, max_value=24))
@settings(max_examples=24)
def test_pointed_rings_verify_and_have_unit_dimensions(n):
    ring = pointed_cyclic_ring(n)
    assert verify_fusion_ring(ring).all_passed
    dims = fp_dimensions(ring)
    assert all(abs(d - 1.0) < 1e-9 for d in dims)


def test_fp_dimensions_so5_frozen():
    dims = fp_dimensions(so_n2_fusion(5))
    expected = [1.0, 1.0, math.sqrt(5), math.sqrt(5), 2.0, 2.0]
    assert all(abs(a - b) < 1e-9 for a, b in zip(dims, expected))


def test_global_dimension_so9():
    assert abs(global_dimension(so_n2_fusion(9)) - 36.0) < 1e-9


def test_fp_eigenvector_identity():
    # The library does not check the float Perron vector: on a verified
    # ring every entry of R = sum_i L_i is at least 1, so the power
    # iteration converges (fusion._frobenius_perron).  Both are checked here.
    rings = [so_n2_fusion(n) for n in range(3, 60, 2)]
    rings += [dihedral_fusion(n) for n in range(3, 60, 2)]
    rings += [pointed_cyclic_ring(n) for n in range(1, 30)]
    rings += [fibonacci_ring(), *small_deligne_products(), rank3_non_integral_ring(2**22 + 1)]
    for ring in rings:
        assert verify_fusion_ring(ring).all_passed
        r = ring.rank
        total = [[0] * r for _ in range(r)]  # R_kj = sum_i N_ij^k
        for (i, j, k), m in ring.coeffs.items():
            total[k][j] += m
        assert min(map(min, total)) >= 1, ring.labels
        dims = fp_dimensions(ring)
        assert fp_identity_residual(ring, dims) <= 1e-9 * max(dims) ** 2, ring.labels


def test_so_n2_squared_dimensions_are_exact():
    for n in range(3, 200, 2):
        ring = so_n2_fusion(n)
        dims = fp_dimensions(ring)
        squares = (1, 1, n, n) + (4,) * ((n - 1) // 2)
        assert ring._fp[1] == squares, n
        assert dims == [math.sqrt(a) for a in squares]


def test_fibonacci_dimensions_fall_back_to_floats():
    fib = fibonacci_ring()
    dims = fp_dimensions(fib)
    assert fib._fp[1] is None  # the golden ratio squared is not an integer
    assert dims[1] == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-14)
    assert fp_identity_residual(fib, dims) < 1e-12


def test_fp_dimensions_rejects_unverified_ring():
    broken = so_n2_fusion(5).with_coefficient(4, 4, 4, 1)
    with pytest.raises(InvalidFusionRingError):
        fp_dimensions(broken)


def test_grading_pointed():
    result = universal_grading(pointed_cyclic_ring(6))
    assert result.order == 6
    assert result.cyclic
    assert result.grades == (0, 1, 2, 3, 4, 5)


def test_grading_trivial_ring():
    ring = FusionRing(rank=1, labels=("1",), dual=(0,), coeffs={(0, 0, 0): 1})
    result = universal_grading(ring)
    assert result.order == 1 and result.cyclic


def test_grading_is_additive_under_fusion():
    rings = [pointed_cyclic_ring(9), so_n2_fusion(11), dihedral_fusion(7)]
    for ring in rings + small_deligne_products():
        g = universal_grading(ring)
        assert g.grades[0] == 0
        if not g.cyclic:  # component ids: every product lies in one component
            for i in range(ring.rank):
                for j in range(ring.rank):
                    assert len({g.grades[k] for k in ring.fuse(i, j)}) == 1
            continue
        for (i, j, k), _ in ring.coeffs.items():
            assert (g.grades[i] + g.grades[j]) % g.order == g.grades[k]
        for i in range(ring.rank):
            assert (g.grades[ring.dual[i]] + g.grades[i]) % g.order == 0


def _z3_squared() -> FusionRing:
    """Group ring of Z_3 x Z_3, (a, b) at index 3a + b: a non-cyclic grading."""
    def index(a, b):
        return 3 * (a % 3) + b % 3

    coeffs = {
        (index(a, b), index(c, d), index(a + c, b + d)): 1
        for a in range(3) for b in range(3) for c in range(3) for d in range(3)
    }
    labels = tuple(f"({a},{b})" for a in range(3) for b in range(3))
    dual = tuple(index(-a, -b) for a in range(3) for b in range(3))
    return FusionRing(rank=9, labels=labels, dual=dual, coeffs=coeffs)


def test_grading_components_match_search_oracle():
    rings = (
        [pointed_cyclic_ring(n) for n in range(1, 25)]
        + [dihedral_fusion(n) for n in range(3, 42, 2)]
        + [so_n2_fusion(n) for n in range(3, 62, 2)]
        + [_z3_squared()]
        + small_deligne_products()
    )
    for ring in rings:
        g = universal_grading(ring)
        comps = grading_components_by_search(ring)
        assert g.order == max(comps) + 1
        for i in range(ring.rank):
            for j in range(ring.rank):
                assert (g.grades[i] == g.grades[j]) == (comps[i] == comps[j])
    g = universal_grading(_z3_squared())
    assert not g.cyclic and g.grades == tuple(range(9))


def test_grading_so_n2_order_two_full_range():
    for n in range(3, 100, 2):
        ring = so_n2_fusion(n)
        result = universal_grading(ring)
        assert result.order == 2, n
        assert result.grades[2] == result.grades[3] == 1  # both X's non-trivial
        assert all(result.grades[i] == 0 for i in range(ring.rank) if i not in (2, 3))


def test_closure_matches_all_pairs_oracle():
    rings = [so_n2_fusion(n) for n in range(3, 60, 2)]
    rings += [dihedral_fusion(n) for n in range(3, 60, 2)]
    rings += [pointed_cyclic_ring(n) for n in range(1, 60)]
    for ring in rings:
        adjoint = {c for i in range(ring.rank) for c in ring.fuse(i, ring.dual[i])}
        for seeds in [{g} for g in range(ring.rank)] + [adjoint]:
            assert _closure(ring, seeds) == closure_by_all_pairs(ring, seeds)


def _built_rings():
    return (
        [pointed_cyclic_ring(n) for n in range(1, 13)]
        + [dihedral_fusion(n) for n in range(3, 22, 2)]
        + [so_n2_fusion(n) for n in range(3, 42, 2)]
    )


def test_builders_equal_fully_validated_rings():
    for ring in _built_rings():
        validated = FusionRing(ring.rank, ring.labels, ring.dual, dict(ring.coeffs))
        assert ring == validated
        assert type(ring.labels) is type(ring.dual) is tuple
        assert type(ring.coeffs) is type(validated.coeffs)
        assert verify_fusion_ring(ring).all_passed


def test_subring_matches_coefficient_filter_oracle():
    for ring in _built_rings():
        for g in range(ring.rank):
            sub = subring_generated(ring, {g})
            assert sub == subring_by_filter(ring, {g}), (ring.rank, g)
            assert (sub is ring) == (sub.rank == ring.rank)
            assert verify_fusion_ring(sub).all_passed


def test_grading_is_computed_once():
    for ring in (pointed_cyclic_ring(6), dihedral_fusion(9), so_n2_fusion(11)):
        assert universal_grading(ring) is universal_grading(ring)


def test_generators_over_the_unit_are_computed_once(monkeypatch):
    calls = []
    generators = fusion._generators

    def counted(ring, known):
        calls.append(sorted(known))
        return generators(ring, known)

    monkeypatch.setattr(fusion, "_generators", counted)
    for built in (pointed_cyclic_ring(6), dihedral_fusion(9), so_n2_fusion(11)):
        ring = FusionRing(built.rank, built.labels, built.dual, built.coeffs)  # nothing cached
        calls.clear()
        assert verify_fusion_ring(ring).all_passed
        fp_dimensions(ring)
        assert calls == [[0]]
        assert ring._unit_generators is ring._unit_generators


def test_with_coefficient_matches_constructor_oracle():
    """Results and errors equal those of the validating constructor."""

    def outcome(build, ring, *entry):
        try:
            return build(ring, *entry)
        except Exception as exc:  # the exception itself is the outcome
            return type(exc), str(exc)

    rng = random.Random(29)
    for ring in _built_rings():
        r = ring.rank
        entries = [(i, j, k, m) for i, j, k in ((0, 0, 0), (r - 1, 0, r - 1), (1 % r, 1 % r, 0))
                   for m in (0, 1, 2, -1, ring.n(i, j, k) + 1)]
        entries += [(*index, m) for index in ((r, 0, 0), (0, -1, 0), (0, 0, r + 3))
                    for m in (0, 1, -1)]
        entries += [(*(rng.randrange(r) for _ in range(3)), rng.choice((0, 1, 3)))
                    for _ in range(5)]
        for entry in entries:
            got = outcome(FusionRing.with_coefficient, ring, *entry)
            assert got == outcome(with_coefficient_by_constructor, ring, *entry), entry
            if isinstance(got, FusionRing):
                assert type(got.coeffs) is type(ring.coeffs)
                assert verify_fusion_ring(got) == verify_fusion_ring(
                    with_coefficient_by_constructor(ring, *entry))
    assert outcome(FusionRing.with_coefficient, so_n2_fusion(5), 0, 0, 7, 1) == (
        ValueError, "coefficient index out of range: (0, 0, 7)")
    assert outcome(FusionRing.with_coefficient, so_n2_fusion(5), 0, 0, 1, -2) == (
        ValueError, "multiplicity must be positive, got N(0, 0, 1)=-2")
    ring = so_n2_fusion(5)
    assert (0, 0, 0) not in ring.with_coefficient(0, 0, 0, 0).coeffs
    assert ring.n(0, 0, 0) == 1


def test_with_coefficient_checks_a_deletion():
    # Bad indices returned a copy, and 0.0 and False, equal to 0, deleted N_00^0.
    ring = pointed_cyclic_ring(3)
    for entry, message in (
        ((99, 0, 0, 0), "coefficient index out of range: (99, 0, 0)"),
        ((-1, 0, 0, 0), "coefficient index out of range: (-1, 0, 0)"),
        ((0.0, 0, 0, 0), "coefficient entries must be integers, got N(0.0, 0, 0)=0"),
        ((0, 0, 0, 0.0), "coefficient entries must be integers, got N(0, 0, 0)=0.0"),
        ((0, 0, 0, False), "coefficient entries must be integers, got N(0, 0, 0)=False"),
    ):
        with pytest.raises(ValueError) as caught:
            ring.with_coefficient(*entry)
        assert str(caught.value) == message
    assert ring.with_coefficient(0, 0, 0, 0).n(0, 0, 0) == 0
    assert ring.n(0, 0, 0) == 1


def test_subring_generated_by_y1_rank():
    for n in (3, 7, 15):
        sub = subring_generated(so_n2_fusion(n), {4})
        assert sub.rank == 2 + (n - 1) // 2


def test_subring_generated_by_z():
    sub = subring_generated(so_n2_fusion(7), {1})
    assert sub.rank == 2
    assert sub.n(1, 1, 0) == 1  # Z (x) Z = 1
    assert sub.labels == ("1", "Z")


def test_subring_generated_by_unit_is_trivial():
    sub = subring_generated(so_n2_fusion(5), {0})
    assert sub.rank == 1
    assert sub.coeffs == {(0, 0, 0): 1}


def test_subring_requires_generators():
    with pytest.raises(ValueError):
        subring_generated(so_n2_fusion(5), set())


def test_subring_rejects_out_of_range_generators():
    ring = so_n2_fusion(5)  # rank 6
    for bad in ({6}, {99}, {-1}, {1, -6}):
        with pytest.raises(ValueError, match="0 <= g < 6"):
            subring_generated(ring, bad)


def test_subring_rejects_generators_that_are_not_ints():
    ring = so_n2_fusion(5)
    for bad in ({1.0}, {True}, {1, "a"}, {None, 4}, [2, 3.0]):
        with pytest.raises(ValueError, match="0 <= g < 6"):
            subring_generated(ring, bad)


def test_dihedral_examples():
    d3 = dihedral_fusion(3)
    assert d3.rank == 3
    assert d3.fuse(2, 2) == {0: 1, 1: 1, 2: 1}  # Y1^2 = 1 + Z + Y1

    d5 = dihedral_fusion(5)
    assert d5.rank == 4
    assert d5.fuse(2, 3) == {2: 1, 3: 1}  # Y1 x Y2 = Y1 + Y2


def test_pointed_ring_rejects_bad_n():
    # The builder's rules skip the constructor's checks, so it checks n itself.
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="need n >= 1"):
            pointed_cyclic_ring(bad)


def test_dihedral_rejects_bad_n():
    with pytest.raises(ValueError):
        dihedral_fusion(4)
    with pytest.raises(ValueError):
        dihedral_fusion(1)
    for bad in (7.0, 7.5):
        with pytest.raises(ValueError, match="need odd n >= 3"):
            dihedral_fusion(bad)
    with pytest.raises(ValueError, match="need odd n >= 3, got '5'"):
        dihedral_fusion("5")


def test_dihedral_matches_character_table_oracle():
    for n in (3, 5, 7, 9, 11, 13):
        ring = dihedral_fusion(n)
        assert ring.coeffs == dihedral_character_coeffs(n)
        assert verify_fusion_ring(ring).all_passed


def test_dihedral_equals_y1_subring():
    for n in (3, 5, 9, 21):
        assert subring_generated(so_n2_fusion(n), {4}) == dihedral_fusion(n)


def test_json_roundtrip_and_canonical_sorting():
    ring = so_n2_fusion(7)
    data = ring.to_json_dict()
    assert data["N"] == sorted(data["N"])
    assert all(m >= 1 for *_, m in data["N"])
    clone = FusionRing.from_json_dict(data)
    assert clone == ring
    assert clone.to_json_dict() == data


def test_ring_equality_is_by_value():
    assert pointed_cyclic_ring(5) == pointed_cyclic_ring(5)
    assert pointed_cyclic_ring(5) != pointed_cyclic_ring(7)

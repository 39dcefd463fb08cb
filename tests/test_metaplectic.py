import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from modcat._value import replace
from modcat.cyclic import canonical_invariant, classify
from modcat.fusion import (
    FusionRing,
    InvalidFusionRingError,
    dihedral_fusion,
    fp_dimensions,
    pointed_cyclic_ring,
    verify_fusion_ring,
)
from modcat.metaplectic import (
    CondensationInputError,
    CondensedData,
    CondensedObject,
    GroupReconstructionError,
    MetaplecticDescriptor,
    condense_z2,
    count_metaplectic,
    enumerate_metaplectic,
    is_tambara_yamagami,
    reconstruct_group,
    so_n2_fusion,
)
from tests.oracles import (
    GROUP_PRECONDITION,
    group_law_by_full_scan,
    rank3_non_integral_ring,
    small_deligne_products,
    so_n2_by_rules,
)

odd_N = st.integers(min_value=1, max_value=49).map(lambda i: 2 * i + 1)


# ---------------------------------------------------------------- SO(N)_2


def test_so3_shape_and_y1_square():
    ring = so_n2_fusion(3)
    assert ring.rank == 5
    assert ring.labels == ("1", "Z", "X1", "X2", "Y1")
    assert ring.fuse(4, 4) == {0: 1, 1: 1, 4: 1}  # Y1 x Y1 = 1 + Z + Y1


def test_so_n2_cache_keeps_few_rings():
    so_n2_fusion.cache_clear()
    maxsize = so_n2_fusion.cache_info().maxsize
    rings = [weakref.ref(so_n2_fusion(n)) for n in range(3, 200, 2)]
    gc.collect()
    assert 6 <= maxsize and sum(ring() is not None for ring in rings) <= maxsize


def test_so5_rules():
    ring = so_n2_fusion(5)
    assert ring.fuse(4, 5) == {5: 1, 4: 1}  # Y1 x Y2 = Y2 + Y1
    assert ring.fuse(2, 3) == {1: 1, 4: 1, 5: 1}  # X1 x X2 = Z + Y1 + Y2
    assert math.sqrt(5) * math.sqrt(5) == pytest.approx(1 + 2 + 2)


def test_z_action_rules():
    for n in (3, 9, 15):
        ring = so_n2_fusion(n)
        assert ring.fuse(1, 1) == {0: 1}  # Z x Z = 1
        assert ring.fuse(1, 2) == {3: 1} and ring.fuse(1, 3) == {2: 1}  # swaps X's
        for y in range(4, ring.rank):
            assert ring.fuse(1, y) == {y: 1}  # fixes every Y


def test_x_square_rule():
    ring = so_n2_fusion(7)
    assert ring.fuse(2, 2) == {0: 1, 4: 1, 5: 1, 6: 1}  # 1 + all Y's
    assert ring.fuse(3, 3) == ring.fuse(2, 2)


def test_all_objects_self_dual():
    assert so_n2_fusion(9).dual == tuple(range(so_n2_fusion(9).rank))


@pytest.fixture(scope="module")
def so_n2_below_200() -> dict[int, FusionRing]:
    """SO(N)_2 for every odd 3 <= N < 200, built once for this module.  The
    so_n2_fusion cache keeps only 8 rings, so without this each test using
    the range would build them again; condensing one verifies it in place."""
    return {n: so_n2_fusion(n) for n in range(3, 200, 2)}


def test_so_n2_matches_rule_by_rule_oracle(so_n2_below_200):
    rings = so_n2_below_200 | {n: so_n2_fusion(n) for n in (293, 401)}
    for n, ring in rings.items():
        assert ring == so_n2_by_rules(n), n


def test_so_n2_rejects_bad_n():
    with pytest.raises(ValueError):
        so_n2_fusion(4)
    with pytest.raises(ValueError):
        so_n2_fusion(1)
    so_n2_fusion(5)  # a cached int N does not answer for the float
    for bad in (5.0, 7.0, 7.5):
        with pytest.raises(ValueError, match="need odd N >= 3"):
            so_n2_fusion(bad)
    with pytest.raises(ValueError, match="need odd N >= 3, got '5'"):
        so_n2_fusion("5")


@given(odd_N)
@settings(max_examples=25, deadline=None)
def test_so_n2_verifies_and_rank(n):
    ring = so_n2_fusion(n)
    assert ring.rank == (n + 7) // 2
    assert verify_fusion_ring(ring).all_passed


# ------------------------------------------------------------ condensation


def test_condense_so3():
    data = condense_z2(so_n2_fusion(3), 1)
    assert [o.name for o in data.d0] == ["1+Z", "Y1^1", "Y1^2"]
    assert all(abs(o.dim - 1.0) < 1e-9 for o in data.d0)
    assert len(data.d1) == 1
    assert abs(data.d1[0].dim - math.sqrt(3)) < 1e-9


def test_condense_so9():
    data = condense_z2(so_n2_fusion(9), 1)
    assert len(data.d0) == 9
    assert all(abs(o.dim - 1.0) < 1e-9 for o in data.d0)
    assert len(data.d1) == 1
    assert abs(data.d1[0].dim - 3.0) < 1e-9


def test_condense_pointed_z2_collapses_to_unit():
    data = condense_z2(pointed_cyclic_ring(2), 1)
    assert len(data.d0) == 1 and len(data.d1) == 0
    assert data.d0[0].name == "[0]+[1]"
    assert abs(data.d0[0].dim - 1.0) < 1e-9


def test_condense_squared_dimension_halves():
    for n in (3, 5, 11, 21):
        ring = so_n2_fusion(n)
        data = condense_z2(ring, 1)
        assert data.total_squared_dim() == pytest.approx(4 * n / 2, abs=1e-9)


def test_condense_rejects_non_involution():
    with pytest.raises(CondensationInputError, match="involution"):
        condense_z2(pointed_cyclic_ring(5), 1)  # [1] has order 5
    with pytest.raises(CondensationInputError, match="unit"):
        condense_z2(pointed_cyclic_ring(2), 0)


def test_condense_rejects_out_of_range_index():
    ring = so_n2_fusion(5)  # rank 6
    for z in (6, 7, -1, -5, 1.0, True):  # 1.0 once raised a TypeError
        with pytest.raises(CondensationInputError, match="1 <= z < 6"):
            condense_z2(ring, z)


def test_condense_refuses_unverified_rings_first():
    # z squares to 1, yet z (x) w is not simple in the first ring and z acts
    # as a 3-cycle on {w, v, u} in the second; both fail verification.
    broken = FusionRing(
        rank=3,
        labels=("1", "z", "w"),
        dual=(0, 1, 2),
        coeffs={
            (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1,
            (2, 0, 2): 1, (1, 1, 0): 1, (1, 2, 1): 1, (1, 2, 2): 1,
        },
    )
    cycle = FusionRing(
        rank=5,
        labels=("1", "z", "w", "v", "u"),
        dual=(0, 1, 2, 3, 4),
        coeffs={
            (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (0, 3, 3): 1,
            (0, 4, 4): 1, (1, 0, 1): 1, (2, 0, 2): 1, (3, 0, 3): 1,
            (4, 0, 4): 1, (1, 1, 0): 1,
            (1, 2, 3): 1, (1, 3, 4): 1, (1, 4, 2): 1,
        },
    )
    for ring in (broken, cycle):
        with pytest.raises(InvalidFusionRingError, match="fusion axioms violated"):
            condense_z2(ring, 1)


def test_involutions_permute_simples_in_verified_rings():
    # condense_z2 checks only z (x) z = 1; verification gives the rest.
    rings = [pointed_cyclic_ring(n) for n in range(1, 41)]
    rings += [dihedral_fusion(n) for n in range(3, 40, 2)]
    rings += [so_n2_fusion(n) for n in range(3, 60, 2)]
    rings += small_deligne_products()
    condensed = refused = 0
    for ring in rings:
        assert verify_fusion_ring(ring).all_passed
        for z in range(ring.rank):
            if ring.fuse(z, z) != {0: 1}:
                continue
            for i in range(ring.rank):
                ((j, mult),) = ring.fuse(z, i).items()
                assert mult == 1 and ring.fuse(z, j) == {i: 1}
            if z >= 1:
                try:
                    condense_z2(ring, z)
                    condensed += 1
                except CondensationInputError as exc:
                    assert str(exc).startswith("universal grading is not cyclic")
                    assert "_fp" not in vars(ring)  # refused before the power iteration
                    refused += 1
    assert (len(rings), condensed, refused) == (137, 115, 48)


def test_condense_flags_odd_dimension_splits():
    # A valid fusion ring where the involution fixes a dimension-3 simple:
    # w^2 = 1 + z + w + 2v, v^2 = 1 + z + v, w v = 2w, z fixes w and v.
    # Its halves are non-integral, so the bookkeeping flags the split.
    ring = FusionRing(
        rank=4,
        labels=("1", "z", "w", "v"),
        dual=(0, 1, 2, 3),
        coeffs={
            (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (0, 3, 3): 1,
            (1, 0, 1): 1, (2, 0, 2): 1, (3, 0, 3): 1,
            (1, 1, 0): 1, (1, 2, 2): 1, (2, 1, 2): 1, (1, 3, 3): 1,
            (3, 1, 3): 1,
            (2, 2, 0): 1, (2, 2, 1): 1, (2, 2, 2): 1, (2, 2, 3): 2,
            (2, 3, 2): 2, (3, 2, 2): 2,
            (3, 3, 0): 1, (3, 3, 1): 1, (3, 3, 3): 1,
        },
    )
    assert verify_fusion_ring(ring).all_passed
    data = condense_z2(ring, 1)
    assert len(data.warnings) == 1 and "w" in data.warnings[0]
    fixed_w = [o for o in data.d0 + data.d1 if o.sources == (2,)]
    assert len(fixed_w) == 2
    assert all(abs(o.dim - 1.5) < 1e-9 for o in fixed_w)


def test_odd_dimension_warning_reads_exact_squares():
    # w^2 = 1 + z + m w with z w = w: d_w = (m + sqrt(m^2 + 8)) / 2 lies
    # within 5e-7 of the odd integer m, but d_w^2 is not an integer.
    m = 2**22 + 1
    ring = rank3_non_integral_ring(m)
    assert verify_fusion_ring(ring).all_passed
    assert 0 < fp_dimensions(ring)[2] - m < 1e-6
    assert condense_z2(ring, 1).warnings == ()


def test_condense_free_orbits_produce_no_warnings():
    assert condense_z2(pointed_cyclic_ring(6), 3).warnings == ()
    assert condense_z2(so_n2_fusion(7), 1).warnings == ()


# ------------------------------------------------------- group reconstruction


def test_reconstruct_so5_frozen_assignment():
    data = condense_z2(so_n2_fusion(5), 1)
    group = reconstruct_group(data)
    assert group.order == 5 and group.cyclic
    assert group.assignment == {"1+Z": 0, "Y1^1": 1, "Y1^2": 4, "Y2^1": 2, "Y2^2": 3}


def test_reconstruct_so3():
    group = reconstruct_group(condense_z2(so_n2_fusion(3), 1))
    assert group.order == 3 and group.cyclic


def test_reconstruct_so9_is_cyclic_of_order_nine():
    group = reconstruct_group(condense_z2(so_n2_fusion(9), 1))
    assert group.order == 9 and group.cyclic
    values = sorted(group.assignment.values())
    assert values == list(range(9))  # Z_9, not Z_3 x Z_3


@given(odd_N)
@settings(max_examples=25, deadline=None)
def test_split_children_get_inverse_elements(n):
    group = reconstruct_group(condense_z2(so_n2_fusion(n), 1))
    for i in range(1, (n - 1) // 2 + 1):
        total = group.assignment[f"Y{i}^1"] + group.assignment[f"Y{i}^2"]
        assert total % n == 0


def test_reconstruct_fills_group_elements():
    group = reconstruct_group(condense_z2(so_n2_fusion(7), 1))
    elems = sorted(o.group_elem for o in group.data.d0)
    assert elems == list(range(7))
    payload = group.data.to_json_dict()
    assert {entry["group_elem"] for entry in payload["D0"]} == set(range(7))


def test_reconstruct_rejects_foreign_shape():
    data = condense_z2(pointed_cyclic_ring(2), 1)
    with pytest.raises(GroupReconstructionError):
        reconstruct_group(data)
    with pytest.raises(GroupReconstructionError):  # failures are not cached
        reconstruct_group(data)


def test_group_law_is_reconstructed_once():
    data = condense_z2(so_n2_fusion(15), 1)
    group = reconstruct_group(data)
    assert reconstruct_group(data) is group
    assert reconstruct_group(group.data) is group
    assert group.data == replace(data, d0=group.data.d0)
    assert is_tambara_yamagami(group.data).group_order == 15


def _group_outcome(data: CondensedData):
    """reconstruct_group's assignment and group elements, or its error."""
    try:
        group = reconstruct_group(data)
    except GroupReconstructionError as exc:
        return str(exc)
    return group.assignment, tuple(obj.group_elem for obj in group.data.d0)


def _oracle_outcome(data: CondensedData):
    try:
        return group_law_by_full_scan(data)
    except GroupReconstructionError as exc:
        return str(exc)


def test_generator_row_matches_full_scan_on_so_n2(so_n2_below_200):
    for n, ring in so_n2_below_200.items():
        data = condense_z2(ring, 1)
        assert _group_outcome(data) == _oracle_outcome(data)


def _z3_with_two_split_sources() -> CondensedData:
    """Pointed Z_3 condensed by z = [0], with [1] and [2] both split.

    The ring passes and z fixes everything, so the generator row is read,
    and it fails: [1] (x) [1] = [2] lifts to two residues, not four."""
    ring = pointed_cyclic_ring(3)

    def obj(sources, split=None):
        return CondensedObject(sources, tuple(ring.labels[s] for s in sources), split, 1.0)

    d0 = (obj((0,)),) + tuple(obj((s,), half) for s in (1, 2) for half in (1, 2))
    return CondensedData(d0=d0, d1=(obj((1, 2)),), ring=ring, z=0)


REFUSAL = GROUP_PRECONDITION


def test_generator_row_matches_full_scan_on_hand_built_data():
    base = condense_z2(so_n2_fusion(7), 1)
    d0 = list(base.d0)
    pos = [p for p, obj in enumerate(d0) if obj.sources == (5,)]  # the halves of Y2
    d0[pos[0]], d0[pos[1]] = d0[pos[1]], d0[pos[0]]
    swapped = replace(base, d0=tuple(d0))
    # Y1 (x) Y2 = Y1 + Y3 with the Y3 pair left out: the generator row fails.
    short = replace(base, d0=tuple(o for o in base.d0 if o.sources != (6,)))
    # SO(15)_2 keeping only the Y3 and Y5 pairs: Y3 (x) Y3 = 1 + Z + Y6
    # reaches no other split source, so the chain stops.
    wide = condense_z2(so_n2_fusion(15), 1)
    gapped = replace(wide, d0=tuple(o for o in wide.d0 if o.sources[0] in (0, 6, 8)))
    # Every case but the pointed Z_2 meets the generator row's precondition.
    cases = [base, swapped, short, replace(base, z=0), replace(base, z=1)]
    cases += [condense_z2(pointed_cyclic_ring(2), 1), _z3_with_two_split_sources(), gapped]
    outcomes = [_group_outcome(data) for data in cases]
    assert outcomes == [_oracle_outcome(data) for data in cases]
    assert outcomes[1] != outcomes[0] and isinstance(outcomes[1], tuple)
    assert outcomes[2] == "component Y3 is not in the identity sector"
    assert outcomes[4] == outcomes[0]
    assert outcomes[5] == REFUSAL
    assert outcomes[6] == "group law inconsistent: witness pair ([1], [1])"
    assert outcomes[7] == "cannot extend generator chain past step 2: witness pair (Y3, Y3)"
    errors = [o for o in outcomes if isinstance(o, str)]
    assert len(set(errors)) == 5, errors


def _mutated(rng: random.Random, data: CondensedData, corrupted) -> CondensedData:
    """data with one random edit: an object dropped, duplicated or moved to
    the other sector, every object of one parent source moved to the other
    sector, D0 shuffled, z set anywhere in -1..rank, or the ring swapped for
    corrupted when their ranks agree."""
    d0, d1 = list(data.d0), list(data.d1)
    kind = rng.randrange(7)
    if kind < 3 and d0 + d1:
        side, other = (d0, d1) if d0 and (not d1 or rng.random() < 0.5) else (d1, d0)
        obj = side.pop(rng.randrange(len(side)))
        targets = [side, side] if kind == 1 else [other] if kind == 2 else []
        for target in targets:  # dropped, duplicated or moved across
            target.insert(rng.randrange(len(target) + 1), obj)
    elif kind == 3 and d0 + d1:
        source = rng.choice([o.sources[0] for o in d0 + d1])
        from0 = [o for o in d0 if o.sources[0] == source]
        from1 = [o for o in d1 if o.sources[0] == source]
        d0, d1 = from1 + [o for o in d0 if o not in from0], from0 + [o for o in d1 if o not in from1]
    elif kind == 4:
        rng.shuffle(d0)
    elif kind == 5:
        return replace(data, z=rng.randrange(-1, data.ring.rank + 1))
    elif kind == 6 and corrupted.rank == data.ring.rank:
        return replace(data, ring=corrupted)
    return replace(data, d0=tuple(d0), d1=tuple(d1))


def test_generator_row_matches_full_scan_on_mutated_data():
    # condense_z2 outputs of SO(N)_2 (N <= 15) and of the small pointed and
    # dihedral rings it accepts, each edited one to three times.
    bases = [condense_z2(so_n2_fusion(n), 1) for n in range(3, 16, 2)]
    bases += [condense_z2(pointed_cyclic_ring(n), n // 2) for n in (2, 4, 6, 8)]
    bases += [condense_z2(dihedral_fusion(n), 1) for n in (3, 5, 7, 9)]
    corrupted = so_n2_fusion(7).with_coefficient(4, 5, 6, 0)
    rng = random.Random(25)
    kinds: dict[str, int] = {}
    for _ in range(500):
        data = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            data = _mutated(rng, data, corrupted)
        outcome = _group_outcome(data)
        assert outcome == _oracle_outcome(data), data
        kind = "accepted" if isinstance(outcome, tuple) else outcome.split()[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    # Each outcome kind shows up: accepted, "not condensed data", "cannot
    # extend generator chain" and "component ... not in the identity sector".
    assert sorted(kinds) == ["accepted", "cannot", "component", "not"], kinds
    assert min(kinds.values()) >= 15, kinds


def test_reconstruct_refuses_data_condense_z2_cannot_make():
    base = condense_z2(so_n2_fusion(7), 1)  # rank 7; Z = 1 fixes Y1..Y3
    unverified = [replace(base, ring=base.ring.with_coefficient(*key, m)) for key, m in (
        ((4, 4, 4), 1), ((4, 5, 6), 0), ((5, 5, 4), 2), ((6, 6, 6), 1), ((1, 4, 5), 1)
    )]
    assert not any(verify_fusion_ring(data.ring).all_passed for data in unverified)
    not_an_index = [replace(base, z=z) for z in (7, 8, -1, -6, 1.0, True, None, "1")]
    not_an_involution = [replace(base, z=z) for z in range(2, 7)]  # X1, X2, Y1..Y3
    # Pointed Z_4 with z = [2]: [2] (x) [2] = [0], but z moves the split [1].
    moves = CondensedData(
        d0=(
            CondensedObject((0, 2), ("[0]", "[2]"), None, 1.0),
            CondensedObject((1,), ("[1]",), 1, 0.5),
            CondensedObject((1,), ("[1]",), 2, 0.5),
        ),
        d1=(CondensedObject((3,), ("[3]",), None, 1.0),),
        ring=pointed_cyclic_ring(4),
        z=2,
    )
    # Y1 (index 4) missing a half; X1+X2 in D0 with the Y3 pair in D1.
    half = replace(base, d0=tuple(o for o in base.d0 if (o.sources, o.split) != ((4,), 2)))
    x_orbit, y3_pair = base.d1, tuple(o for o in base.d0 if o.sources == (6,))
    swapped = replace(base, d0=tuple(o for o in base.d0 if o not in y3_pair) + x_orbit, d1=y3_pair)
    shapes = [half, swapped]
    for data in unverified + not_an_index + not_an_involution + [moves] + shapes:
        assert _group_outcome(data) == REFUSAL, data.z
        report = is_tambara_yamagami(data)  # never raises
        assert not report.is_ty and report.group_order is None
        if len(data.d1) == 1:  # else TY stops at the size of D1 first
            assert report.reason == REFUSAL


# --------------------------------------------------------- Tambara-Yamagami


def test_ty_on_condensed_so_n2():
    for n in (3, 5, 7, 9):
        report = is_tambara_yamagami(condense_z2(so_n2_fusion(n), 1))
        assert report.is_ty
        assert report.group_order == n and report.cyclic


def _obj(name: str, dim: float, split=None, sources=(4,)) -> CondensedObject:
    return CondensedObject(
        sources=sources, source_labels=(name,), split=split, dim=dim
    )


def test_ty_false_with_two_objects_in_d1():
    base = condense_z2(so_n2_fusion(5), 1)
    doubled = CondensedData(
        d0=base.d0, d1=base.d1 + base.d1, ring=base.ring, z=base.z
    )
    report = is_tambara_yamagami(doubled)
    assert not report.is_ty
    assert "2 objects" in report.reason


def test_ty_false_with_non_pointed_identity_sector():
    # The children of [1] and [2] do not fuse like group elements, so the
    # identity sector is not a pointed group.
    report = is_tambara_yamagami(_z3_with_two_split_sources())
    assert not report.is_ty and report.group_order is None
    assert report.reason == "group law inconsistent: witness pair ([1], [1])"
    # Y1 (x) Y1 gaining a Y1 breaks the ring itself, which is refused.
    base = condense_z2(so_n2_fusion(5), 1)
    broken = replace(base, ring=base.ring.with_coefficient(4, 4, 4, 1))
    report = is_tambara_yamagami(broken)
    assert not report.is_ty and report.group_order is None
    assert report.reason == REFUSAL


def test_ty_false_when_dimension_mismatch():
    # X1 (x) X1 = 1 + Y1 drops Y2 (d_m^2 = 3, not |A| = 5); the ring then
    # fails verification, so no group is reconstructed.  A verified ring
    # whose m (x) m misses A is test_ty_reads_fusion_rules_not_dimensions.
    base = condense_z2(so_n2_fusion(5), 1)
    broken = replace(base, ring=base.ring.with_coefficient(2, 2, 5, 0))
    report = is_tambara_yamagami(broken)
    assert not report.is_ty and report.group_order is None
    assert report.reason == REFUSAL


def test_ty_reads_fusion_rules_not_dimensions():
    # Y1 given the dimension sqrt(5) = sqrt(|A|) still squares to
    # 1 + Z + Y2, which lands on the unit twice.
    base = condense_z2(so_n2_fusion(5), 1)
    fake = replace(base, d1=(_obj("Y1", math.sqrt(5)),))
    report = is_tambara_yamagami(fake)
    assert not report.is_ty
    assert report.group_order == 5
    assert "m (x) m" in report.reason


def test_ty_false_when_m_is_a_split_half():
    base = condense_z2(so_n2_fusion(5), 1)
    half = replace(base, d1=(_obj("Y1", 1.0, split=1),))
    report = is_tambara_yamagami(half)
    assert not report.is_ty
    assert "split" in report.reason


# ------------------------------------------------------------ enumeration


def test_count_examples():
    assert count_metaplectic(3) == 4
    assert count_metaplectic(15) == 8
    assert count_metaplectic(105) == 16
    assert count_metaplectic(9) == 4  # s counts distinct primes, not exponents


def test_count_rejects_bad_n():
    for build in (count_metaplectic, enumerate_metaplectic):
        for bad in (15.0, 6, 1):
            with pytest.raises(ValueError, match="need odd N >= 3"):
                build(bad)


def test_enumerate_so3():
    descriptors = enumerate_metaplectic(3)
    assert len(descriptors) == 4
    assert {(d.signs[0][1], d.h3) for d in descriptors} == {
        (1, 0),
        (1, 1),
        (-1, 0),
        (-1, 1),
    }


def test_enumerate_n9_has_single_sign():
    descriptors = enumerate_metaplectic(9)
    assert len(descriptors) == 4
    assert all(len(d.signs) == 1 and d.signs[0][0] == 3 for d in descriptors)


def test_enumerate_sign_vectors_biject_with_cyclic_classes():
    for n in range(3, 400, 2):
        descriptors = enumerate_metaplectic(n)
        assert len(descriptors) == count_metaplectic(n)
        # Each sign vector appears exactly once per gauging bit, and the
        # set of sign vectors matches the cyclic classification exactly.
        sign_vectors = {d.signs for d in descriptors}
        assert len(sign_vectors) == len(descriptors) // 2
        realized = {
            tuple(sign for _, sign in canonical_invariant(n, rep).factors)
            for rep in classify(n)
        }
        assert {tuple(s for _, s in sv) for sv in sign_vectors} == realized


def test_descriptor_json_roundtrip():
    for n in (*range(3, 400, 2), 100280245065):
        for d in enumerate_metaplectic(n):
            assert MetaplecticDescriptor.from_json_dict(d.to_json_dict()) == d


GOOD_DESCRIPTOR = {"N": 15, "signs": [{"p": 3, "eps": 1}, {"p": 5, "eps": -1}], "h3": 1}


SIGNS_REFUSAL = 'signs must be a list of {"p": ..., "eps": ...} objects'
DESCRIPTOR_REFUSALS = [
    ({"N": "15"}, "N", "N must be an odd integer >= 3, got '15'"),
    ({"N": 15.0}, "N", "N must be an odd integer >= 3, got 15.0"),
    ({"N": True}, "N", "N must be an odd integer >= 3, got True"),
    ({"N": 14}, "N", "N must be an odd integer >= 3, got 14"),
    ({"N": 1}, "N", "N must be an odd integer >= 3, got 1"),
    ({"h3": "1"}, "h3", "h3 must be 0 or 1, got '1'"),
    ({"h3": True}, "h3", "h3 must be 0 or 1, got True"),
    ({"h3": 2}, "h3", "h3 must be 0 or 1, got 2"),
    ({"h3": 1.0}, "h3", "h3 must be 0 or 1, got 1.0"),
    ({"signs": [{"p": 3, "eps": True}]}, "eps", "eps must be 1 or -1, got True"),
    ({"signs": [{"p": 3, "eps": 0}]}, "eps", "eps must be 1 or -1, got 0"),
    ({"signs": [{"p": 3.0, "eps": 1}]}, "p", "p must be an integer > 1, got 3.0"),
    ({"signs": [{"p": "3", "eps": 1}]}, "p", "p must be an integer > 1, got '3'"),
    ({"signs": [{"p": 3}]}, "signs", SIGNS_REFUSAL),
    ({"signs": [[3, 1]]}, "signs", SIGNS_REFUSAL),
    ({"signs": "3:+1"}, "signs", SIGNS_REFUSAL),
    ({"h3": None}, "h3", "h3 must be 0 or 1, got None"),
    ({"signs": [{"p": 4, "eps": 1}]}, "p", "p must divide N = 15, got 4"),
    ({"signs": [{"p": 5, "eps": 1}, {"p": 3, "eps": 1}]}, "p",
     "p must exceed the p before it, got 3 after 5"),
    ({"signs": [{"p": 3, "eps": 1}]}, "signs",
     "signs must list every prime of N = 15, but 5 is left"),
    ({"signs": [{"p": 15, "eps": 1}]}, "p", "p must be prime, got 15"),
    ({"signs": [{"p": 3, "eps": 1}, {"p": 3, "eps": 1}, {"p": 5, "eps": 1}]}, "p",
     "p must exceed the p before it, got 3 after 3"),
]


@pytest.mark.parametrize(  # ids leave the long message out
    "change, field, message",
    [pytest.param(*case, id=f"change{i}-{case[1]}") for i, case in enumerate(DESCRIPTOR_REFUSALS)],
)
def test_descriptor_json_refuses_malformed_fields(change, field, message):
    assert MetaplecticDescriptor.from_json_dict(GOOD_DESCRIPTOR).n == 15
    with pytest.raises(ValueError, match=rf"^{field} |'{field}'") as refused:
        MetaplecticDescriptor.from_json_dict({**GOOD_DESCRIPTOR, **change})
    assert str(refused.value) == message


MISSING_KEYS = [
    ([], "descriptor data must be a JSON object"),
    ({"N": 15, "signs": []}, "missing key 'h3'"),
    ({"signs": [], "h3": 0}, "missing key 'N'"),
]


@pytest.mark.parametrize(
    "data, message",
    [pytest.param(*case, id=f"data{i}") for i, case in enumerate(MISSING_KEYS)],
)
def test_descriptor_json_refuses_missing_keys(data, message):
    with pytest.raises(ValueError, match="descriptor data|missing key") as refused:
        MetaplecticDescriptor.from_json_dict(data)
    assert str(refused.value) == message

"""fusion_rings: a stream of fusion rings through the fusion and metaplectic layers.

Each block holds six rings in seeded order: two fresh SO(N)_2, one SO(N)_2
repeating the previous block's first N (a cache hit), one dihedral ring,
one dense pointed Z_n ring and one corrupted copy of a ring.  Every valid
ring runs verification, FP dimensions, universal grading and a generated
subring; SO(N)_2 rings also run Z-condensation, group reconstruction,
Tambara-Yamagami recognition and the metaplectic enumeration.  The first
block holds each family at its largest size, in a fixed order.
"""

from __future__ import annotations

import inspect
from math import gcd

import oracle
from inputs import Strata, make_rng, uniform_int
from modcat import fusion, metaplectic
from workload import Op

NAME = "fusion_rings"
IN_PROCESS = True
# Blocks per second of --seconds: a run of all its passes takes about 1.3 times
# that long on a 2-core virtual machine.
BLOCKS_PER_SECOND = 0.33
# Times a timed run goes through its op list; with two, the best-of-passes
# latency of the 1-2 ms calls around the median still varied by a tenth from
# run to run of one seed on a steady machine.
PASSES = 3

SO_N = (7, 151)  # odd N
DIHEDRAL_N = (3, 151)  # odd n
POINTED_N = (3, 61)
AXIOMS = ("unit", "dual", "commutativity", "associativity")

PIPELINE = {
    "so": ("so_n2_fusion", "verify_fusion_ring", "fp_dimensions", "universal_grading",
           "subring_generated", "condense_z2", "reconstruct_group",
           "is_tambara_yamagami", "enumerate_metaplectic"),
    "dihedral": ("dihedral_fusion", "verify_fusion_ring", "fp_dimensions",
                 "universal_grading", "subring_generated"),
    "pointed": ("pointed_cyclic_ring", "verify_fusion_ring", "fp_dimensions",
                "universal_grading", "subring_generated"),
}


def rank_of(family: str, n: int) -> int:
    return {"so": (n + 7) // 2, "dihedral": (n + 3) // 2, "pointed": n}[family]


def dual_of(family: str, n: int, i: int) -> int:
    return (n - i) % n if family == "pointed" else i


def _odd_in(u: float, lo: int, hi: int) -> int:
    return lo + 2 * uniform_int(u, 0, (hi - lo) // 2)


def corruption_site(rng, family: str, n: int, axiom: str) -> list[int]:
    """(i, j, k) of the coefficient to break so that `axiom` must fail."""
    rank = rank_of(family, n)
    i = rng.randrange(1, rank)
    if axiom == "unit":  # N_{0 i}^i := 2
        return [0, i, i]
    if axiom == "dual":  # N_{i i*}^0 := 2
        return [i, dual_of(family, n, i), 0]
    j = rng.choice([x for x in range(1, rank) if x != i])
    k = rng.choice([x for x in range(1, rank) if x != dual_of(family, n, i)])
    # commutativity bumps N_ij^k alone; associativity bumps N_ij^k and N_ji^k,
    # which breaks (i, j, k*, 0) since N_{j k*}^{i*} keeps its value.
    return [i, j, k]


def _generator(u: float, family: str, n: int) -> int:
    """The subring generator at position u of the ring's non-unit objects."""
    if family == "pointed":
        return 1 + int(u * (n - 1))
    half = (n - 1) // 2
    first_y = 4 if family == "so" else 2
    choices = [1] + [first_y + i for i in range(half)] + ([2] if family == "so" else [])
    return choices[int(u * len(choices))]


def plan(seed: int, blocks: int) -> list[dict]:
    """The seeded op stream: one entry per library call, grouped by ring."""
    rng = make_rng(NAME, seed)
    # One stratified stream per ring slot, each drawn once per block (the
    # corrupted slot cycles through the families, one stream per family).
    # The subring generators come from stratified streams too, one per family.
    # The streams draw from a generator of their own that the seed does not
    # touch: a ring's size and generator set its cost, so sizes drawn per seed
    # would move the latency percentiles from seed to seed by as much as the
    # benchmark's bounds.
    streams = ("so_first", "so_second", "dihedral", "pointed",
               "corrupt_so", "corrupt_dihedral", "corrupt_pointed",
               "gen_so", "gen_dihedral", "gen_pointed")
    sizes = make_rng(NAME, "sizes")  # the same for every seed
    strata = {name: Strata(sizes) for name in streams}
    out: list[dict] = []
    previous_first = SO_N[1]
    for b in range(blocks):

        def size(stream: str, lo: int, hi: int, odd: bool) -> int:
            if b == 0:
                return hi
            u = strata[stream].next()
            return _odd_in(u, lo, hi) if odd else uniform_int(u, lo, hi)

        so_fresh = [size("so_first", *SO_N, True), size("so_second", *SO_N, True)]
        rings = [
            ("so", so_fresh[0]),
            ("so", so_fresh[1]),
            ("so", previous_first),
            ("dihedral", size("dihedral", *DIHEDRAL_N, True)),
            ("pointed", size("pointed", *POINTED_N, False)),
        ]
        previous_first = so_fresh[0]
        entries = [
            [{"family": family, "n": n, "call": call, "gen": gen} for call in PIPELINE[family]]
            for family, n in rings
            for gen in [_generator(strata[f"gen_{family}"].next(), family, n)]
        ]
        family = ("so", "dihedral", "pointed")[b % 3]
        lo, hi = {"so": SO_N, "dihedral": DIHEDRAL_N, "pointed": POINTED_N}[family]
        n = size(f"corrupt_{family}", lo, hi, family != "pointed")
        axiom = AXIOMS[(b // 3) % len(AXIOMS)]
        entries.append([{"family": family, "n": n, "call": "verify_fusion_ring",
                         "corrupt": axiom, "at": corruption_site(rng, family, n, axiom)}])
        if b > 0:  # block 0 keeps its order, so the largest rings meet the same heap
            rng.shuffle(entries)
        for ring_ops in entries:
            out.extend(ring_ops)
    return out


def raw_ring(family: str, n: int) -> fusion.FusionRing:
    """A fresh ring built outside any cache and any wrapper."""
    build = {"so": metaplectic.so_n2_fusion, "dihedral": fusion.dihedral_fusion,
             "pointed": fusion.pointed_cyclic_ring}[family]
    return inspect.unwrap(build)(n)


def corrupted_ring(spec: dict) -> fusion.FusionRing:
    ring = raw_ring(spec["family"], spec["n"])
    i, j, k = spec["at"]
    axiom = spec["corrupt"]
    if axiom in ("unit", "dual"):
        return ring.with_coefficient(i, j, k, 2)
    ring = ring.with_coefficient(i, j, k, ring.n(i, j, k) + 1)
    if axiom == "associativity":
        ring = ring.with_coefficient(j, i, k, ring.n(j, i, k) + 1)
    return ring


def witness_holds(coeffs: dict, rank: int, dual: tuple, axiom: str, witness: tuple) -> bool:
    """Whether `witness` really violates `axiom` in the raw coefficients."""
    if axiom == "unit":
        return oracle.unit_fails_at(coeffs, witness)
    if axiom == "dual":
        return oracle.dual_fails_at(coeffs, dual, witness)
    if axiom == "commutativity":
        return oracle.commutativity_fails_at(coeffs, witness)
    return oracle.associativity_fails_at(coeffs, rank, witness)


def _expected_dims(family: str, n: int) -> list[float]:
    if family == "pointed":
        return [1.0] * n
    if family == "so":
        return [1.0, 1.0, n**0.5, n**0.5] + [2.0] * ((n - 1) // 2)
    return [1.0, 1.0] + [2.0] * ((n - 1) // 2)


def _subring_rank(family: str, n: int, gen: int) -> int:
    if family == "pointed":
        return n // gcd(n, gen)
    if gen == 1:
        return 2  # {1, Z}
    if family == "so" and gen in (2, 3):
        return rank_of(family, n)  # an X generates everything
    y = gen - (3 if family == "so" else 1)
    return 2 + (n // gcd(y, n) - 1) // 2


class Session:
    """Carries each ring, and its condensation, from one call to the next."""

    def __init__(self, workdir: str, trace: bool, plan: list[dict]) -> None:
        del workdir, trace, plan  # in-process: the worker installs the tracer
        self.ring = None
        self.condensed = None
        self.group = None
        self.rings: set[tuple] = set()  # distinct rings sent to verification
        # Each pass of a run starts from an empty so_n2_fusion cache, so every
        # pass meets the same cache hits and misses.
        metaplectic.so_n2_fusion.cache_clear()

    def counters(self) -> dict[str, float]:
        return {"fusion.distinct_rings": len(self.rings)}

    def prepare(self, spec: dict) -> Op:
        family, n, call = spec["family"], spec["n"], spec["call"]
        rank = rank_of(family, n)
        if call == "verify_fusion_ring":
            self.rings.add((family, n, spec.get("corrupt"), tuple(spec.get("at", ()))))
        if "corrupt" in spec:
            ring, axiom = corrupted_ring(spec), spec["corrupt"]

            def check_corrupt(report) -> str | None:
                found = report.check(axiom)
                if report.all_passed or found.passed or found.witness is None:
                    return f"corrupted {family}({n}) passed the {axiom} axiom"
                if not witness_holds(ring.coeffs, ring.rank, ring.dual, axiom, found.witness):
                    return f"{axiom} witness {found.witness} is not a violation"
                return None

            return Op(call, rank, lambda: fusion.verify_fusion_ring(ring), check_corrupt,
                      fails_in=("fusion",))

        if call in ("so_n2_fusion", "dihedral_fusion", "pointed_cyclic_ring"):
            module = metaplectic if call == "so_n2_fusion" else fusion
            # Free the previous ring and its condensation now, not inside the timed call.
            self.ring = self.condensed = self.group = None

            def construct():
                self.ring = getattr(module, call)(n)
                return self.ring

            return Op(call, rank, construct,
                      lambda r: None if r.rank == rank else f"rank {r.rank}, expected {rank}")

        ring = self.ring
        if call == "verify_fusion_ring":
            return Op(call, rank, lambda: fusion.verify_fusion_ring(ring),
                      lambda rep: None if rep.all_passed else f"valid {family}({n}) failed {rep}")
        if call == "fp_dimensions":
            expected = _expected_dims(family, n)

            def check_dims(dims) -> str | None:
                if len(dims) != rank or any(
                    abs(d - e) > 1e-6 * e for d, e in zip(dims, expected)
                ):
                    return f"FP dimensions {dims[:6]}... != {expected[:6]}..."
                return None

            return Op(call, rank, lambda: fusion.fp_dimensions(ring), check_dims)
        if call == "universal_grading":
            order = {"so": 2, "dihedral": 1, "pointed": n}[family]

            def check_grading(g) -> str | None:
                if g.order != order or not g.cyclic:
                    return f"grading of order {g.order}, expected cyclic of order {order}"
                if not oracle.grading_is_additive(ring.coeffs, g.grades, order):
                    return "grades are not additive under fusion"
                return None

            return Op(call, rank, lambda: fusion.universal_grading(ring), check_grading)
        if call == "subring_generated":
            gen = spec["gen"]
            expected = _subring_rank(family, n, gen)
            return Op(call, rank, lambda: fusion.subring_generated(ring, {gen}),
                      lambda sub: None if sub.rank == expected
                      else f"subring of {gen} has rank {sub.rank}, expected {expected}")
        if call == "condense_z2":
            def condense():
                self.condensed = metaplectic.condense_z2(ring, 1)
                return self.condensed

            def check_condensed(data) -> str | None:
                if len(data.d0) != n or len(data.d1) != 1:
                    return f"sectors of sizes {len(data.d0)}, {len(data.d1)}; expected {n}, 1"
                if abs(data.d1[0].dim ** 2 - n) > 1e-6 * n:
                    return f"non-trivial sector has dimension {data.d1[0].dim}"
                return None

            return Op(call, rank, condense, check_condensed)
        if call == "reconstruct_group":
            data = self.condensed

            def reconstruct():
                self.group = metaplectic.reconstruct_group(data)
                return self.group

            def check_group(group) -> str | None:
                elems = sorted(obj.group_elem for obj in group.data.d0)
                if group.order != n or not group.cyclic or elems != list(range(n)):
                    return f"group of order {group.order}, expected Z_{n}"
                return None

            return Op(call, rank, reconstruct, check_group)
        if call == "is_tambara_yamagami":
            data = self.group.data
            return Op(call, rank, lambda: metaplectic.is_tambara_yamagami(data),
                      lambda ty: None if ty.is_ty and ty.group_order == n
                      else f"TY report {ty}, expected a group of order {n}")
        if call == "enumerate_metaplectic":
            primes = [p for p, _ in oracle.factor(n)]

            def check_enum(descs) -> str | None:
                keys = {(d.signs, d.h3) for d in descs}
                if len(descs) != 2 ** (len(primes) + 1) or len(keys) != len(descs):
                    return f"{len(descs)} descriptors, expected 2^{len(primes) + 1} distinct"
                if any([p for p, _ in d.signs] != primes for d in descs):
                    return "descriptor primes differ from the factorization of N"
                return None

            return Op(call, n, lambda: metaplectic.enumerate_metaplectic(n), check_enum)
        raise ValueError(f"unknown fusion_rings call {call!r}")


"""Metaplectic fusion rings SO(N)_2 (N odd), their Z_2 boson condensation
at the Grothendieck-ring level, Tambara-Yamagami recognition, cyclic group
reconstruction on the condensed identity sector, and class enumeration.

Condensation here is pure fusion/dimension bookkeeping: free orbits of the
condensing boson merge, fixed simples split into halves, and the total
squared dimension halves.  No associator data is touched.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from ._value import Value, json_fields, replace, signed_pairs
from .fusion import FusionRing, _dihedral_rows
from .numthy import distinct_primes, is_prime


class CondensationInputError(ValueError):
    """The condensing object does not satisfy the required fusion shape."""


class GroupReconstructionError(ValueError):
    """Condensed identity-sector fusion is inconsistent with a cyclic group."""


def _require_odd_n(n: int) -> None:
    """Refuse n unless it is an odd int >= 3 (so no bool or float)."""
    if type(n) is not int or n < 3 or n % 2 == 0:
        raise ValueError(f"need odd N >= 3, got {n!r}")


@lru_cache(maxsize=8)
def so_n2_fusion(n: int) -> FusionRing:
    """The SO(N)_2 fusion ring for odd N >= 3 (rank (N+7)/2).

    Simples: 1, Z, X1, X2, Y_1..Y_{(N-1)/2}, all self-dual.  Z swaps the
    two X's and fixes every Y; the X's square to 1 plus all Y's and mix
    to Z plus all Y's; Y_i (x) Y_j = Y_min(i+j, N-i-j) + Y_|i-j| with
    Y_i^2 = 1 + Z + Y_min(2i, N-2i).  The last 8 rings are cached; their
    callers share one immutable ring, so it is verified and graded once
    while cached.
    """
    _require_odd_n(n)
    rank = 4 + (n - 1) // 2
    rows = _dihedral_rows(n, 4)
    ys = range(4, rank)
    # One dict per distinct product of the X sector.
    square = {0: 1, **dict.fromkeys(ys, 1)}  # X (x) X = 1 + all Y's
    mixed = {1: 1, **dict.fromkeys(ys, 1)}  # X1 (x) X2 = Z + all Y's
    x_y = {2: 1, 3: 1}  # every X (x) Y and Y (x) X
    for x, other in ((2, 3), (3, 2)):
        rows[0][x] = rows[x][0] = {x: 1}
        rows[1][x] = rows[x][1] = {other: 1}
        rows[x][x], rows[x][other] = square, mixed
        for y in ys:
            rows[x][y] = rows[y][x] = x_y
    labels = ("1", "Z", "X1", "X2") + tuple(f"Y{i}" for i in range(1, rank - 3))
    return FusionRing._of_rows(rank, labels, tuple(range(rank)), rows)


class CondensedObject(Value):
    """One simple object of the condensed category.

    sources are parent-ring indices (two for a merged free orbit); split
    distinguishes the two children of a fixed simple.  group_elem is filled
    by reconstruct_group on the identity sector.
    """

    sources: tuple[int, ...]
    source_labels: tuple[str, ...]
    split: int | None
    dim: float
    group_elem: int | None

    def __init__(self, sources, source_labels, split, dim, group_elem=None) -> None:
        self.__dict__.update(
            sources=sources, source_labels=source_labels, split=split, dim=dim,
            group_elem=group_elem,
        )

    @property
    def name(self) -> str:
        if self.split is not None:
            return f"{self.source_labels[0]}^{self.split}"
        return "+".join(self.source_labels)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "group_elem": self.group_elem, "source": self.name}


class CondensedData(Value):
    """Sector decomposition after condensing an invertible boson z.

    d0 is the identity sector (trivial residual grade), d1 everything
    else.  ring and z are the parent ring and the condensed boson, which
    the group-law reconstruction reads."""

    d0: tuple[CondensedObject, ...]
    d1: tuple[CondensedObject, ...]
    ring: FusionRing
    z: int
    warnings: tuple[str, ...]

    def __init__(self, d0, d1, ring, z, warnings=()) -> None:
        self.__dict__.update(d0=d0, d1=d1, ring=ring, z=z, warnings=warnings)

    def to_json_dict(self) -> dict:
        return {
            "D0": [obj.to_json_dict() for obj in self.d0],
            "D1": [obj.to_json_dict() for obj in self.d1],
        }

    def total_squared_dim(self) -> float:
        return sum(o.dim**2 for o in self.d0 + self.d1)


def condense_z2(ring: FusionRing, z: int) -> CondensedData:
    """Condense the invertible involution z at the fusion-ring level.

    Precondition: the ring passes verification (else InvalidFusionRingError),
    and z is a non-unit index with z (x) z = 1 whose ring has a cyclic
    universal grading (else CondensationInputError).  Nothing more is asked
    of z: in a verified ring, z (x) z = 1 alone makes z (x) - a permutation
    of the simples of order 2.

    Free z-orbits {X, zX} merge into one object of dimension d_X; fixed
    simples split into two halves of dimension d_X / 2.  Sectors come
    from the universal grading of the ring with the grade of z quotiented
    out (identity sector = trivial residual grade).  For SO(N)_2 and
    z = Z this produces N invertibles in the identity sector and a single
    sqrt(N)-dimensional object in the other.  The float dimensions, and the
    warning of a fixed simple with odd dimension, are display only: no
    recognition decision reads them.  The warning reads the exact squared
    dimensions, so only a weakly integral ring can raise it.
    """
    ring.require_verified()
    if type(z) is not int or not 0 < z < ring.rank:
        raise CondensationInputError(
            f"z = {z}: need a non-unit object index, 1 <= z < {ring.rank}"
        )
    if ring.fuse(z, z) != {0: 1}:
        raise CondensationInputError(
            f"object {ring.labels[z]} is not an involution: z (x) z != 1"
        )
    # N_zz^0 = 1 and the dual law give z* = z, so sum_k (N_zi^k)^2 = sum_k
    # N_zi^k N_zk^i is the coefficient of i in z (x) (z (x) i) = i, which is
    # 1.  So z (x) i is one simple of multiplicity 1, and z (x) (z (x) i) = i.
    sigma = [next(iter(ring.fuse(z, i))) for i in range(ring.rank)]
    grading = ring._grading
    if not grading.cyclic:
        raise CondensationInputError(
            "universal grading is not cyclic; sector assignment unsupported"
        )
    dims, squares = ring._fp
    # Condensation kills the grade of z: sectors live in Z_order / <grade(z)>.
    residual = gcd(grading.grades[z], grading.order)

    def sector(i: int) -> int:
        return 0 if grading.grades[i] % residual == 0 else 1

    warnings: list[str] = []
    d0: list[CondensedObject] = []
    d1: list[CondensedObject] = []
    for i in range(ring.rank):
        j = sigma[i]
        if j < i:
            continue  # orbit already handled from its smaller member
        if j == i:
            d = dims[i]
            if squares and isqrt(squares[i]) ** 2 == squares[i] and squares[i] % 2:
                warnings.append(
                    f"fixed simple {ring.labels[i]} has odd dimension {d:g}; "
                    "its halves are non-integral"
                )
            children = [
                CondensedObject(
                    sources=(i,),
                    source_labels=(ring.labels[i],),
                    split=s,
                    dim=d / 2,
                )
                for s in (1, 2)
            ]
        else:
            children = [
                CondensedObject(
                    sources=(i, j),
                    source_labels=(ring.labels[i], ring.labels[j]),
                    split=None,
                    dim=dims[i],
                )
            ]
        (d0 if sector(i) == 0 else d1).extend(children)
    return CondensedData(
        d0=tuple(d0), d1=tuple(d1), ring=ring, z=z, warnings=tuple(warnings)
    )


class ReconstructedGroup(Value):
    """Group law recovered on the condensed identity sector."""

    order: int
    cyclic: bool
    assignment: dict  # condensed-object name -> residue in Z_order
    data: CondensedData  # identity-sector objects with group_elem filled

    def __init__(self, order, cyclic, assignment, data) -> None:
        self.__dict__.update(order=order, cyclic=cyclic, assignment=assignment, data=data)


def reconstruct_group(data: CondensedData) -> ReconstructedGroup:
    """Recover the cyclic group law on the identity sector of a condensed
    SO(N)_2 ring.

    The lowest-index split source plays the role of the generator pair:
    its children get residues +1 and -1, and fusing with it walks the
    remaining split sources in a chain, residues i and N - i.  The lifted
    fusion rules are then checked: the residue multiset of the children of
    Y_i (x) Y_j must be {+-(i+j), +-(i-j)} mod N.  The row of the
    generator decides every rule, since the chain peels each source from
    products with it.

    Precondition, the shape condense_z2 always gives: D0 is one object
    sourced from the unit plus both halves of each split source, D1 is not
    empty, the ring passes verification, and z is an index with
    z (x) z = 1 that fixes every split source.  Other data is refused with
    one GroupReconstructionError before any rule is read.  Inconsistent
    rules fail with the first witnessing pair of the generator row.

    Computed once per data and kept, on success only, in the __dict__ of
    data and of the returned group's data: both answer with that group.
    """
    if "_group" in vars(data):
        return vars(data)["_group"]
    ring, z = data.ring, data.z
    order = len(data.d0)
    units: list[int] = []
    children: dict[int, list[int]] = {}  # split source -> positions of its halves
    for pos, obj in enumerate(data.d0):
        if 0 in obj.sources:
            units.append(pos)
        if obj.split is not None:
            children.setdefault(obj.sources[0], []).append(pos)
    if not (
        len(units) == 1 and data.d1 != ()
        and all(len(p) == 2 for p in children.values()) and 2 * len(children) + 1 == order
        and ring._report.all_passed and type(z) is int and 0 <= z < ring.rank
        and ring.fuse(z, z) == {0: 1} and all(ring.fuse(z, s) == {s: 1} for s in children)
    ):
        raise GroupReconstructionError(
            "not condensed data: need D0 = one unit object plus both halves of each "
            "split source, a non-empty D1, a verified ring and an index z with "
            "z (x) z = 1 fixing every split source"
        )

    # Chain the split sources by repeated fusion with the first one; the
    # chain numbers them 1..h, so the residues are Z_order.
    sources = sorted(children)
    lifts = {0: [0], z: [0]}  # parent source -> residues of its D0 children

    def child_residues(source: int) -> list[int]:
        if source not in lifts:
            raise GroupReconstructionError(
                f"component {ring.labels[source]} is not in the identity sector"
            )
        return lifts[source]

    if sources:
        first = cur = sources[0]
        lifts[first] = [1, order - 1]
        for step in range(2, len(sources) + 1):
            comps = [c for c in ring.fuse(first, cur) if c in children and c not in lifts]
            if len(comps) != 1:
                raise GroupReconstructionError(
                    f"cannot extend generator chain past step {step}: "
                    f"witness pair ({ring.labels[first]}, {ring.labels[cur]})"
                )
            cur = comps[0]
            lifts[cur] = [step, order - step]

        # phi sends 1 and z to [0] and a split source s to [r_s] + [-r_s] in
        # Q[Z_order].  In an associative ring, the x in V0 = span{1, z, split
        # sources} with x V0 in V0 and phi(x y) = phi(x) phi(y) for all y in
        # V0 form a subspace closed under products.  It holds 1, and z when
        # z (x) z = 1 and z fixes every split source.  Then, in a commutative
        # ring with a unit, first belongs once its row passes, and so does
        # each source the chain peeled from products with it: that row
        # decides.
        for b in sources:
            lifted = sorted((ra + rb) % order for ra in lifts[first] for rb in lifts[b])
            condensed = sorted(
                r
                for target, mult in ring.fuse(first, b).items()
                for r in child_residues(target) * mult
            )
            if lifted != condensed:
                raise GroupReconstructionError(
                    f"group law inconsistent: witness pair "
                    f"({ring.labels[first]}, {ring.labels[b]})"
                )

    residue_of_pos = {units[0]: 0}
    for src, positions in children.items():
        residue_of_pos.update(zip(positions, lifts[src]))
    filled = tuple(
        CondensedObject(obj.sources, obj.source_labels, obj.split, obj.dim, residue_of_pos[pos])
        for pos, obj in enumerate(data.d0)
    )
    new_data = replace(data, d0=filled)
    assignment = {obj.name: residue_of_pos[pos] for pos, obj in enumerate(data.d0)}
    group = ReconstructedGroup(
        order=order, cyclic=True, assignment=assignment, data=new_data
    )
    # new_data differs from data only in group_elem, which is never read here.
    vars(data)["_group"] = vars(new_data)["_group"] = group
    return group


class TYReport(Value):
    """Tambara-Yamagami recognition: a pointed identity sector forming a
    group A plus a single object m with m (x) m = sum of all a in A."""

    is_ty: bool
    group_order: int | None
    cyclic: bool | None
    reason: str | None

    def __init__(self, is_ty, group_order=None, cyclic=None, reason=None) -> None:
        self.__dict__.update(is_ty=is_ty, group_order=group_order, cyclic=cyclic, reason=reason)


def is_tambara_yamagami(data: CondensedData) -> TYReport:
    """Decide Tambara-Yamagami shape from the condensed fusion rules.

    The non-trivial sector must hold one object m; reconstruct_group must
    lift the group law to the identity sector, which makes it a pointed
    group A; and the components of x (x) x, x a source of the merged orbit
    m, must land on every object of A exactly once and nowhere else.
    """
    if len(data.d1) != 1:
        return TYReport(
            False, reason=f"non-trivial sector has {len(data.d1)} objects, need 1"
        )
    try:
        group = reconstruct_group(data)
    except GroupReconstructionError as exc:
        return TYReport(False, reason=str(exc))
    m = data.d1[0]
    if m.split is not None:
        reason = f"m = {m.name} is half of a split simple, so m (x) m is unknown"
        return TYReport(False, group.order, group.cyclic, reason)
    # A parent component c of x (x) x lands once on each object sourced
    # from c: on its merged orbit, or on both halves of its split.
    objects = data.d0 + data.d1
    square = data.ring.fuse(m.sources[0], m.sources[0])
    hits = [sum(square.get(src, 0) for src in obj.sources) for obj in objects]
    landed = set(square) <= {src for obj in objects for src in obj.sources}
    if not landed or hits != [1] * len(data.d0) + [0] * len(data.d1):
        reason = "m (x) m is not the sum of all a in A, each once"
        return TYReport(False, group.order, group.cyclic, reason)
    return TYReport(True, group_order=group.order, cyclic=group.cyclic)


class MetaplecticDescriptor(Value):
    """Invariant labelling one metaplectic class: a Jacobi sign for every
    prime of N plus one binary gauging choice (an opaque descriptor bit)."""

    n: int
    signs: tuple[tuple[int, int], ...]  # ((prime, eps), ...) ascending primes
    h3: int

    def __init__(self, n, signs, h3) -> None:
        self.__dict__.update(n=n, signs=signs, h3=h3)

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "signs": [{"p": p, "eps": e} for p, e in self.signs],
            "h3": self.h3,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetaplecticDescriptor":
        """Load the JSON schema strictly; type(x) is int refuses bools and
        floats.  The signs' p are the distinct primes of N, ascending,
        checked without factoring N, which may be of any size: each p
        exceeds the one before, divides N and passes is_prime, and dividing
        them all out of N leaves 1.  is_prime is deterministic below
        318665857834031151167461 (about 3.2 * 10**23), the least strong
        pseudoprime to its twelve bases, which it takes for a prime."""
        n, signs, h3 = json_fields(data, "descriptor", ("N", "signs", "h3"))
        if type(n) is not int or n < 3 or n % 2 == 0:
            raise ValueError(f"N must be an odd integer >= 3, got {n!r}")
        if type(h3) is not int or h3 not in (0, 1):
            raise ValueError(f"h3 must be 0 or 1, got {h3!r}")
        signs = signed_pairs(signs, "signs", "p", "eps")
        rest, previous = n, 1
        for p, _ in signs:
            if p <= previous:
                raise ValueError(f"p must exceed the p before it, got {p} after {previous}")
            if n % p:
                raise ValueError(f"p must divide N = {n}, got {p}")
            if not is_prime(p):
                raise ValueError(f"p must be prime, got {p}")
            while rest % p == 0:
                rest //= p
            previous = p
        if rest != 1:
            raise ValueError(f"signs must list every prime of N = {n}, but {rest} is left")
        return cls(n=n, signs=signs, h3=h3)


def count_metaplectic(n: int) -> int:
    """Number of inequivalent metaplectic modular categories with SO(N)_2
    fusion rules: 2^(s+1), s the number of distinct primes of N."""
    _require_odd_n(n)
    return 2 ** (len(distinct_primes(n)) + 1)


def enumerate_metaplectic(n: int) -> list[MetaplecticDescriptor]:
    """All 2^(s+1) metaplectic class descriptors for modulus N.

    Every sign vector over the primes of N, crossed with the binary
    gauging bit.  Each sign vector is the Jacobi descriptor of exactly one
    class of the cyclic classification of Z_N (Wall, 1963): by CRT a
    local parameter with any prescribed Legendre sign exists at every
    prime.
    """
    _require_odd_n(n)
    primes = distinct_primes(n)
    descriptors = []
    for signs in product((1, -1), repeat=len(primes)):
        for h3 in (0, 1):
            descriptors.append(
                MetaplecticDescriptor(
                    n=n, signs=tuple(zip(primes, signs)), h3=h3
                )
            )
    return descriptors

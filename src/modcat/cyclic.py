"""Cyclic modular categories on Z_n (n odd): quadratic-form twists, modular
data, Gauss sums, equivalence classification, CRT decomposition, twist
automorphisms, bosons, subgroup condensation, and quantum-double detection.

A category stores its twists as integer residues over one common
denominator (n for built categories); `Phase` objects and JSON twist
strings are made only where the API hands twists out, one per distinct
residue.  All decisions, the modular relations included, run in exact
integer arithmetic; floats appear only in the Gauss sum, which is read
off its closed form (the Jacobi symbol and sqrt(n)), and in
`modular_relation_residuals`, the numeric display of the modular
relations.  That display takes one row of (S T)^3 per orbit of the
braided automorphisms u^2 = 1 that fix the stored twists (the
particle-hole map j -> -j among them), a group found by comparing
integer residues.  numpy is imported inside that one array function, so
the exact path never loads it.
"""

from __future__ import annotations

import cmath
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, isqrt, lcm, sqrt

from ._value import Value
from .numthy import factorize, jacobi, unit_square_orbits

_TWIST_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # a twist text "a" or "a/b", b > 0


class UnsupportedModulusError(ValueError):
    """Even moduli are out of scope: their quadratic forms behave differently."""


class DegenerateFormError(ValueError):
    """gcd(k, n) > 1: the form kx^2/n is degenerate and the data not modular."""


class CondensationError(ValueError):
    """Base for condensation precondition violations."""


class NotASubgroupError(CondensationError):
    pass


class NonBosonError(CondensationError):
    pass


class NotIsotropicError(CondensationError):
    pass


class Phase(Value, by_dict=False):
    """A root of unity e^{2 pi i a/b}, stored as the reduced fraction a/b
    in [0, 1).  Addition and negation are exact modulo 1.  Immutable, so
    one object may stand for every label that carries its value."""

    __slots__ = ("frac",)
    frac: Fraction

    def __init__(self, frac: Fraction) -> None:
        if not 0 <= frac.numerator < frac.denominator:  # Fraction % 1 is the slow part
            frac %= 1
        object.__setattr__(self, "frac", frac)

    @classmethod
    def of(cls, numerator: int, denominator: int = 1) -> "Phase":
        return cls(Fraction(numerator, denominator))

    @classmethod
    def parse(cls, text: str) -> "Phase":
        """The phase of a twist written "a" or "a/b", integers a and b > 0 in
        ASCII digits; any other text raises ValueError naming it."""
        if not isinstance(text, str) or not _TWIST_TEXT.fullmatch(text):
            raise ValueError(f'twist {text!r} is not "a" or "a/b" with integers a and b > 0')
        num, _, den = text.partition("/")
        return cls.of(int(num), int(den) if den else 1)

    @property
    def is_zero(self) -> bool:
        return self.frac == 0

    def __add__(self, other: "Phase") -> "Phase":
        return Phase(self.frac + other.frac)

    def __sub__(self, other: "Phase") -> "Phase":
        return Phase(self.frac - other.frac)

    def __neg__(self) -> "Phase":
        return Phase(-self.frac)

    def __mul__(self, times: int) -> "Phase":
        return Phase(self.frac * times)

    __rmul__ = __mul__

    def as_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.frac))

    def __str__(self) -> str:
        return f"{self.frac.numerator}/{self.frac.denominator}"

    def __reduce__(self):  # slot state would be restored through the frozen __setattr__
        return Phase, (self.frac,)


def _shared(residues: Sequence[int], make) -> Iterable:
    """make(r) for each residue r in order, made once per distinct value:
    by theta_j = theta_{n-j} a built C(n, k) holds at most (n + 1) / 2
    distinct twists."""
    made = dict.fromkeys(residues)
    for r in made:
        made[r] = make(r)
    return map(made.__getitem__, residues)


def phases(denominator: int, residues: Sequence[int]) -> tuple[Phase, ...]:
    """The phases r / denominator (mod 1) of the given integer residues.
    Labels with equal residues share one Phase."""
    return tuple(_shared(residues, lambda r: Phase.of(r, denominator)))


class CyclicCategory(Value, by_dict=False):
    """Modular data of the cyclic category with twists theta_j = e^{2 pi i
    k j^2 / n} on the fusion group Z_n.  n odd, k a unit modulo n.

    The twist of label j is residues[j] / denominator, with residues in
    [0, denominator) and denominator = lcm(n, every twist denominator), so
    equal twists give equal fields.  The constructor takes Phase twists;
    `twists` hands them back, built on first use.
    """

    n: int
    k: int
    residues: tuple[int, ...]
    denominator: int
    _init_fields = ("n", "k")  # the constructor takes twists, not residues

    def __init__(self, n: int, k: int, twists: Sequence[Phase]) -> None:
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        _require_int_k(k)
        if not isinstance(twists, Sequence):
            raise ValueError(f"twists must be a sequence of Phase values, got {twists!r}")
        if len(twists) != n:
            raise ValueError(f"need one twist per label: n = {n}, got {len(twists)}")
        bad = next((j for j, t in enumerate(twists) if not isinstance(t, Phase)), None)
        if bad is not None:
            raise ValueError(f"twist of label {bad} must be a Phase, got {twists[bad]!r}")
        d = lcm(n, *(t.frac.denominator for t in twists))
        residues = tuple(t.frac.numerator * (d // t.frac.denominator) for t in twists)
        self.__dict__.update(n=n, k=k, residues=residues, denominator=d)

    @classmethod
    def _of_residues(cls, n: int, k: int, residues: tuple[int, ...]) -> "CyclicCategory":
        """The category with twists residues[j] / n; each residue in [0, n)."""
        cat = object.__new__(cls)
        cat.__dict__.update(n=n, k=k, residues=residues, denominator=n)
        return cat

    @cached_property
    def twists(self) -> tuple[Phase, ...]:
        # Through the public `phases`, so a per-layer trace (perfbench
        # --trace 1) shows where Phase objects are made, even when the
        # first access is the tracer's own `hasattr(cat, "twists")`.
        return phases(self.denominator, self.residues)

    def __getstate__(self) -> dict:  # pickles and copies leave the cached twists out
        return {name: getattr(self, name) for name in self._fields}

    @property
    def rank(self) -> int:
        return self.n

    def twist(self, j: int) -> Phase:
        return Phase.of(self.residues[j % self.n], self.denominator)

    def to_json_dict(self) -> dict:
        """Labels with equal residues share one "a/b" twist string."""
        d = self.denominator

        def text(r: int) -> str:
            g = gcd(r, d)
            return f"{r // g}/{d // g}"

        return {"n": self.n, "k": self.k, "twists": list(_shared(self.residues, text))}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CyclicCategory":
        """Load the JSON schema strictly; type(x) is int refuses bools and floats."""
        if not isinstance(data, dict):
            raise ValueError("category data must be a JSON object")
        for key in ("n", "k", "twists"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        twists = data["twists"]
        if not isinstance(twists, list):
            raise ValueError('twists must be a list of "a" or "a/b" strings')
        return cls(n=data["n"], k=data["k"], twists=tuple(map(Phase.parse, twists)))


class ClassDescriptor(Value):
    """Canonical invariant of a cyclic class: per prime-power factor p^a of
    the modulus, the Jacobi sign of the local form parameter."""

    factors: tuple[tuple[int, int], ...]  # ((p^a, sign), ...) sorted by prime

    def __init__(self, factors) -> None:
        self.__dict__["factors"] = factors

    @property
    def modulus(self) -> int:
        m = 1
        for pp, _ in self.factors:
            m *= pp
        return m

    def to_json_dict(self) -> dict:
        return {"factors": [{"pp": pp, "sign": s} for pp, s in self.factors]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClassDescriptor":
        """Load the JSON schema strictly; type(x) is int refuses bools and floats."""
        if not isinstance(data, dict):
            raise ValueError("descriptor data must be a JSON object")
        if "factors" not in data:
            raise ValueError("missing key 'factors'")
        factors = data["factors"]
        if not isinstance(factors, list) or not all(
            isinstance(f, dict) and f.keys() >= {"pp", "sign"} for f in factors
        ):
            raise ValueError('factors must be a list of {"pp": ..., "sign": ...} objects')
        for f in factors:
            if type(f["pp"]) is not int or f["pp"] < 2:
                raise ValueError(f"pp must be an integer > 1, got {f['pp']!r}")
            if type(f["sign"]) is not int or f["sign"] not in (1, -1):
                raise ValueError(f"sign must be 1 or -1, got {f['sign']!r}")
        return cls(tuple((f["pp"], f["sign"]) for f in factors))


def _require_odd(n: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"modulus must be a positive integer, got {n!r}")
    if n % 2 == 0:
        raise UnsupportedModulusError(f"even modulus {n} is not supported")


def _require_int_k(k: int) -> None:
    if type(k) is not int:  # refuses bools and floats
        raise ValueError(f"k must be an integer, got {k!r}")


def _require_unit(n: int, k: int) -> int:
    _require_int_k(k)
    g = gcd(k, n)
    if g != 1:
        raise DegenerateFormError(f"degenerate form: gcd(k,n) = {g}")
    return k % n


def build_cyclic(n: int, k: int) -> CyclicCategory:
    """Construct the cyclic category with twists k j^2 / n (mod 1).

    Rejects even n (UnsupportedModulusError) and gcd(k, n) > 1
    (DegenerateFormError, the data would not be modular).  n = 1 gives
    the trivial category.  Labels 0..n//2 are computed and mirrored by the
    particle-hole symmetry theta_j = theta_{n-j}, sharing their ints.
    """
    _require_odd(n)
    k = _require_unit(n, k)
    half = [k * j * j % n for j in range(n // 2 + 1)]
    return CyclicCategory._of_residues(n, k, tuple(half + half[n // 2 : 0 : -1]))


def bilinear(cat: CyclicCategory, x: int, y: int) -> Phase:
    """The symmetric bilinear form b(x, y) = 2 k x y / n (mod 1) attached
    to the twist form."""
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"labels must be integers, got {x!r}, {y!r}")
    if not (0 <= x < cat.n and 0 <= y < cat.n):
        raise ValueError(f"labels must lie in [0, {cat.n}), got {x}, {y}")
    return Phase.of(2 * cat.k * x * y, cat.n)


def smatrix(cat: CyclicCategory) -> list[list[Phase]]:
    """Unnormalized S-matrix as exact phases: entry (i, j) is the phase of
    S_ij, namely -2 k i j / n (mod 1); the scalar 1/sqrt(n) is implied.
    Entries share the n phases r / n.

    Row i <= n//2 reads them at the multiples of s = -2 k i (mod n), and
    each such row is one extended slice of tiled = phases * (n//2): for
    0 < s <= n//2 and j < n, s j <= (n//2)(n - 1) < len(tiled), and
    tiled[s j] is phases[s j % n], so the row is tiled[0 : s n : s].  A
    step s = 0 gives n copies of phases[0], and a step s > n//2 reads the
    row of step n - s at -j.  Rows n - i, 1 <= i <= (n - 1)//2, mirror row
    i by the particle-hole symmetry S_{n-i,j} = S_{i,n-j}, which holds for
    every n, even n and k = 0 included.  tiled holds n (n//2) list slots
    while the call runs, beside the n^2 of the result: 0.36 MB at n = 301,
    4 MB at n = 1001.
    """
    n, k = cat.n, cat.k
    phases = [Phase.of(r, n) for r in range(n)]
    tiled = phases * (n // 2)
    rows = []
    for i in range(n // 2 + 1):
        step = -2 * k * i % n
        if step == 0:
            rows.append([phases[0]] * n)
        elif step <= n // 2:
            rows.append(tiled[0 : step * n : step])
        else:
            row = tiled[0 : (n - step) * n : n - step]
            rows.append([row[0]] + row[:0:-1])
    rows += ([row[0]] + row[:0:-1] for row in rows[(n - 1) // 2 : 0 : -1])
    return rows


class BalancingReport(Value):
    passed: bool
    witness: tuple[int, int] | None

    def __init__(self, passed, witness=None) -> None:
        self.__dict__.update(passed=passed, witness=witness)


def verify_balancing(cat: CyclicCategory) -> BalancingReport:
    """Check S_ij theta_i theta_j = theta_{j-i} on every pair (i, j).

    The left side uses the S-matrix recomputed from (n, k) together with
    the stored twists; the right side is the stored twist of j - i (the
    pointed fusion rule N_{-i,j}^{j-i} = 1 with all quantum dimensions 1).
    Exact phase equality; a corrupted twist vector fails with a witness,
    the first failing pair in row-major order.

    Rows i = 0 and i = 1 decide all n rows.  With e_j = theta_j - k j^2/n
    the identity reads e_i + e_j = e_{j-i}.  Row 0 forces e_0 = 0.  Row 1
    forces e_j = -j e_1 with 2 e_1 = n e_1 = 0, and such an e satisfies
    every row, for any n.  So whenever some pair fails, a pair of row 0 or
    row 1 fails, and the first of those is the first in row-major order.
    Phases are compared as the stored residues s_j over their common
    denominator d, a multiple of n; memory is O(n).  Pair (0, j) reads
    s_0 + s_j - s_j = s_0 (mod d), the same for every j, and residues lie
    in [0, d): so row 0 is the one comparison s_0 = 0, and it fails at
    (0, 0) first.  Row 1 reads s_{j-1} at the Python index j - 1, which
    is n - 1 at j = 0.
    """
    n, k, d, s = cat.n, cat.k, cat.denominator, cat.residues
    if s[0]:
        return BalancingReport(False, (0, 0))
    if n > 1:
        s1, step = s[1], 2 * k * (d // n)
        for j in range(n):
            if (s1 + s[j] - s[j - 1] - step * j) % d:
                return BalancingReport(False, (1, j))
    return BalancingReport(True)


def gauss_sum(n: int, k: int) -> complex:
    """sum_j e^{2 pi i k j^2 / n}, from its closed form.

    With g = gcd(k, n), the sum runs g times over Z_{n/g} with the unit
    k/g, and for odd m and a unit a the quadratic Gauss sum is
    (a|m) eps_m sqrt(m), eps_m = 1 if m = 1 (mod 4) and i otherwise
    (Berndt, Evans and Williams, Gauss and Jacobi Sums, 1998).  So
    |G| = sqrt(n) exactly when gcd(k, n) = 1.
    """
    _require_odd(n)
    _require_int_k(k)
    g = gcd(k, n)
    m = n // g
    value = g * jacobi(k // g, m) * sqrt(m)
    return complex(value, 0) if m % 4 == 1 else complex(0, value)


def are_equivalent(n: int, k1: int, k2: int) -> bool:
    """Whether C(n, k1) and C(n, k2) are equivalent, i.e. k1 = k2 j^2 (mod n)
    for some unit j.

    Decided by comparing the Jacobi-sign descriptors of canonical_invariant,
    the complete invariant of the class (Wall, 1963): k1 / k2 is a unit
    square exactly when it is a square modulo every prime of n.
    """
    _require_odd(n)
    _require_unit(n, k1)
    _require_unit(n, k2)
    return canonical_invariant(n, k1) == canonical_invariant(n, k2)


def canonical_invariant(n: int, k: int) -> ClassDescriptor:
    """Jacobi-sign descriptor of the class of C(n, k): for each prime power
    p^a of n the sign of the local parameter k * (n / p^a) modulo p.

    Equal descriptors on the same modulus characterize equivalence.
    """
    _require_odd(n)
    k = _require_unit(n, k)
    factors = []
    for p, e in factorize(n):
        pp = p**e
        local = k * (n // pp) % pp
        factors.append((pp, jacobi(local, p)))
    return ClassDescriptor(tuple(factors))


def classify(n: int) -> list[int]:
    """One representative k per equivalence class of cyclic categories on
    Z_n; there are exactly 2^s classes, s the number of distinct primes.

    Representatives are the unit-square orbit minima, ascending, found by
    unit_square_orbits from their Legendre signs; classify(1) == [0].
    """
    _require_odd(n)
    return unit_square_orbits(n)[1]


def decompose(n: int, k: int) -> list[CyclicCategory]:
    """Split C(n, k) into its prime-power direct factors C(p^a, k n/p^a).

    The factor parameter k n/p^a makes the twist of every label the sum
    of the component twists at its CRT coordinates: with cofactor
    c = n/p^a and coordinate a_p = j c^{-1} mod p^a, k j^2/n equals
    sum_p (k c) a_p^2 / p^a modulo 1.
    """
    _require_odd(n)
    k = _require_unit(n, k)
    if n == 1:
        return [build_cyclic(1, 0)]
    parts = []
    for p, e in factorize(n):
        pp = p**e
        cof = n // pp
        parts.append(build_cyclic(pp, k * cof % pp))
    return parts


def _square_roots_of_one(n: int) -> list[int]:
    """The 2^s square roots of 1 modulo odd n >= 1, ascending; [0] for
    n = 1, where 1 = 0.  Modulo an odd prime power the only square roots
    of 1 are +1 and -1, so the roots modulo n are the CRT combinations of
    those signs."""
    roots, m = [1 % n], 1  # the square roots of 1 modulo m
    for p, e in factorize(n):
        pp = p**e
        inv = pow(m, -1, pp)
        roots = [a + m * ((b - a) * inv % pp) for a in roots for b in (1, -1)]
        m *= pp
    return sorted(roots)


def braided_autos(n: int, k: int) -> list[int]:
    """Group automorphisms of Z_n preserving the twists: units u with
    u^2 = 1 (mod n), ascending.  Always contains the particle-hole map
    u = n - 1."""
    _require_odd(n)
    _require_unit(n, k)
    return _square_roots_of_one(n)


def find_bosons(cat: CyclicCategory) -> list[int]:
    """Labels with trivial twist.  All objects are invertible, so these are
    exactly the condensable bosons; they form a subgroup of Z_n.  Uses no
    symmetry, as a category read from JSON may carry any residues: the
    zeros are counted, then found by `tuple.index`, so the scan runs in C.
    """
    residues = cat.residues
    bosons, j = [], -1
    for _ in range(residues.count(0)):
        j = residues.index(0, j + 1)
        bosons.append(j)
    return bosons


class CondensationOutcome(Value):
    """Result of condensing an isotropic boson subgroup H: the descended
    form on the local quotient H-perp / H."""

    subgroup: tuple[int, ...]
    perp: tuple[int, ...]
    generator: int  # smallest positive representative generating the quotient
    quotient: CyclicCategory
    lagrangian: bool

    def __init__(self, subgroup, perp, generator, quotient, lagrangian) -> None:
        self.__dict__.update(
            subgroup=subgroup, perp=perp, generator=generator, quotient=quotient,
            lagrangian=lagrangian,
        )

    def to_json_dict(self) -> dict:
        return {
            "subgroup": list(self.subgroup),
            "perp_order": len(self.perp),
            "generator": self.generator,
            "quotient": self.quotient.to_json_dict(),
            "lagrangian": self.lagrangian,
        }


def condense_subgroup(
    cat: CyclicCategory, subgroup: Iterable[int]
) -> CondensationOutcome:
    """Condense a subgroup H of bosons: return H-perp / H with the descended
    quadratic form, realized as a cyclic category on the chosen generator
    (smallest positive coset representative).

    H must be a subgroup of Z_n, consist of bosons (twist 0), and be
    isotropic for the bilinear form; each violation is reported distinctly.
    Flags the condensation as Lagrangian when H-perp = H.  A subgroup is
    H = g Z_n, g = gcd(n, *H): it is isotropic iff b(g, g) = 0, and H-perp
    = (n / gcd(n, 2 k g)) Z_n.
    """
    n, k = cat.n, cat.k
    elements = list(subgroup)
    for x in elements:
        if type(x) is not int:
            raise ValueError(f"subgroup elements must be integers, got {x!r}")
    h = tuple(sorted(set(x % n for x in elements)))
    if 0 not in h:
        raise NotASubgroupError("subgroup must contain 0")
    g = gcd(n, *h)
    if h != tuple(range(0, n, g)):  # not a subgroup: name the first escaping pair
        hset = set(h)
        for a in h:
            for b in h:
                if (a + b) % n not in hset:
                    raise NotASubgroupError(
                        f"not closed under addition: {a} + {b} escapes the set"
                    )
    bad = next(compress(h, cat.residues[::g]), None)  # here h is range(0, n, g)
    if bad is not None:
        raise NonBosonError(f"element {bad} has twist {cat.twist(bad)}, not a boson")
    if (2 * k * g * g) % n != 0:  # (g, g) is the first failing pair, row-major
        raise NotIsotropicError(f"b({g},{g}) != 0: subgroup is not isotropic")

    perp = tuple(range(0, n, n // gcd(n, 2 * k * g)))
    quotient_order = len(perp) // len(h)
    if quotient_order == 1:
        return CondensationOutcome(h, perp, 0, build_cyclic(1, 0), lagrangian=True)
    gen = perp[1]
    d = cat.denominator
    t1, rest = divmod(cat.residues[gen] * quotient_order, d)
    if rest:  # quotient_order * theta_gen is not an integer
        raise CondensationError("descended form does not live on the quotient")
    quotient = build_cyclic(quotient_order, t1 % quotient_order)
    dq = quotient.denominator
    for x in range(quotient_order):
        if cat.residues[x * gen % n] * dq != quotient.residues[x] * d:
            raise CondensationError(f"descended twist mismatch at {x}")
    return CondensationOutcome(h, perp, gen, quotient, lagrangian=False)


def find_lagrangian_subgroup(cat: CyclicCategory) -> tuple[int, ...] | None:
    """A boson subgroup H with H-perp = H, if any exists.

    For odd cyclic n this happens exactly when n is a perfect square and
    H is the index-sqrt(n) subgroup.  H = d Z_n equals its perp (n / gcd(n,
    2 k d)) Z_n, and so is isotropic, iff gcd(n, 2 k d) d = n; H is the
    first such divisor d, ascending, whose multiples are all bosons."""
    n, k = cat.n, cat.k
    divisors = {e for i in range(1, isqrt(n) + 1) if n % i == 0 for e in (i, n // i)}
    for d in sorted(divisors):
        if gcd(n, 2 * k * d) * d == n and not any(cat.residues[::d]):
            return tuple(range(0, n, d))
    return None


def is_quantum_double(cat: CyclicCategory) -> bool:
    """Whether the category is a Drinfeld double, witnessed by a Lagrangian
    subgroup of bosons (for odd cyclic n: n must be a perfect square)."""
    return find_lagrangian_subgroup(cat) is not None


def verify_modular_relations(cat: CyclicCategory) -> bool:
    """Whether (S T)^3 = (G / sqrt(n)) S^2 and S^4 = identity hold exactly,
    with S_ij = w^{-2kij} / sqrt(n), w = e^{2 pi i / n}, T = diag(twists)
    and G the Gauss sum; even n raises UnsupportedModulusError.

    They hold iff gcd(k, n) = 1, theta_0^3 = 1 and theta_j = theta_0
    w^{k j^2} for every j.  The first relation reads S T S = lambda T^-1 S
    T^-1.  S T S is Hankel, so theta_{i+l} theta_0 = theta_i theta_l
    w^{2kil}: theta / theta_0 is the form of k times a character w^{aj}.
    For a unit k write a = 2kb; completing the square then forces
    4kb = 0 (mod n), so b = 0, and what is left is theta_0^3 = 1.  For a
    non-unit k, S is not unitary and S^4 != I.  With theta_j = r_j / d
    (d a multiple of n), the test is 3 r_0 = 0 (mod d) and n (r_j - r_0)
    = k j^2 d (mod n d), i.e. r_j - r_0 = k j^2 d/n (mod d): O(n) integer
    operations.  modular_relation_residuals gives the numeric errors.
    """
    n, k, d, s = cat.n, cat.k, cat.denominator, cat.residues
    _require_odd(n)
    r0, per_n = s[0], d // n
    if gcd(k, n) != 1 or 3 * r0 % d:
        return False
    for j in range(n):
        if (s[j] - r0 - k * j * j * per_n) % d:
            return False
    return True


def modular_relation_residuals(cat: CyclicCategory) -> tuple[float, float]:
    """Max errors of (S T)^3 - (G / sqrt(n)) S^2 over one row per orbit
    of the twist-fixing braided automorphisms, and of S^4 - I.

    No S-matrix is formed.  With w = e^{2 pi i / n}, S_ij = w^{-2kij} /
    sqrt(n) is a permuted DFT: S x = fft(x)[p] / sqrt(n), p_i = 2 k i mod
    n, for any k.  So S T S and S^2 are Hankel: entry (i, l) is
    h[(i + l) % n], resp. g[(i + l) % n], with h = fft(theta)[p] / n and
    g = fft(1)[p] / n.  Row i of (S T)^3 = (S T S) T S T is S applied to
    (h[(i + m) % n] theta_m)_m, scaled by theta_l: a row-wise FFT, taken
    in blocks of max(1, 2^13 // n) rows.  S^4 = (S^2)^2 is circulant with
    first row c_d = sum_u g_u g_{(u + d) % n}, a correlation taken by FFT.

    The rows taken are the least label of each orbit of Z_n under the
    group of square roots u of 1 that fix the stored twists, s[u j mod
    n] == s[j] for every j, compared as integers, so the group is exact.
    For such u, S_{ui,ul} = S_il, h[ua] = h[a] and g[ua] = g[a], for any
    k: entry (ui, ul) equals entry (i, l) in exact arithmetic, and the
    rows of one orbit hold the same entries in another order.  So the
    first residual is the entrywise maximum up to round-off, and at most
    it.  A built C(n, k) is fixed by all 2^s roots, leaving (n + 1) / 2
    rows for prime n and 168 at n = 1001; a twist vector no u != 1 fixes
    keeps all n.  Time O(r n log n) for r orbits; memory O(n) plus one
    block of about 2^13 complex entries.  Even n raises
    UnsupportedModulusError before any root or FFT work.
    """
    n = cat.n
    _require_odd(n)
    d = cat.denominator  # int / int rounds correctly, as float(Fraction) does
    fracs = [r / d for r in cat.residues]
    return _modular_residuals(n, cat.k, fracs, _orbit_rows(cat))


def _orbit_rows(cat: CyclicCategory) -> "np.ndarray":
    """The least label of each orbit of Z_n under the square roots u of 1
    with s[u j mod n] == s[j] for every j, s the residues, ascending."""
    import numpy as np

    n = cat.n
    # Residues lie in [0, denominator); past int64 they stay Python ints,
    # as numpy would turn a mix of small and 64-bit ints into floats.
    exact = np.int64 if cat.denominator <= 2**63 else object
    s, labels = np.array(cat.residues, dtype=exact), np.arange(n)
    least = labels.copy()
    for u in _square_roots_of_one(n):
        moved = u * labels % n
        if (s[moved] == s).all():
            np.minimum(least, moved, out=least)
    return np.flatnonzero(least == labels)


def _modular_residuals(
    n: int, k: int, fracs: Sequence[float], rows: "np.ndarray"
) -> tuple[float, float]:
    """modular_relation_residuals for the twists theta_j = e^{2 pi i
    fracs[j]}, the first residual over the given rows."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    def hankel(v: np.ndarray) -> np.ndarray:  # a view: entry (i, l) is v[(i + l) % n]
        return sliding_window_view(np.concatenate((v, v[:-1])), n)

    anomaly = gauss_sum(n, k) / np.sqrt(n)
    theta = np.exp(2j * np.pi * np.array(fracs))
    perm = (2 * k % n) * np.arange(n) % n  # S x = fft(x)[perm] / sqrt(n)
    h = np.fft.fft(theta)[perm] / n  # S T S = hankel(h)
    g = np.fft.fft(np.ones(n))[perm] / n  # S^2 = hankel(g)
    sts, s2, scale = hankel(h), hankel(anomaly * g), theta / np.sqrt(n)
    err1, step = 0.0, max(1, 2**13 // n)  # rows per block: about 2^13 entries
    for a in range(0, len(rows), step):
        block = rows[a : a + step]
        out = np.take(np.fft.fft(sts[block] * theta, axis=1), perm, axis=1)
        out *= scale
        out -= s2[block]
        err1 = max(err1, float(np.abs(out).max()))
    f = np.fft.fft(g)
    s4 = np.fft.ifft(f * f[-np.arange(n) % n])  # first row of the circulant S^4
    s4[0] -= 1
    return err1, float(np.abs(s4).max())

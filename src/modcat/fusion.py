"""Fusion rings: sparse integer fusion coefficients, axiom verification,
Frobenius-Perron dimensions, universal grading, and subring extraction.

A fusion ring here is commutative (every category in scope is braided)
with a distinguished unit at index 0 and a dual involution on indices.
Labels are display metadata only; all semantics are by index.  A ring is
immutable and stores its rules once, as the fuse index rows[i][j] = {k:
N_ij^k}, and coeffs is a read-only view of the index keyed by (i, j, k).
Every index has one shape, whether built, loaded or unpickled: j (x) i
shares the dict of an equal i (x) j, and the builders share more.  A ring
keeps its axiom report, its FP dimensions and its universal grading, each
computed once.  Every check runs in exact Python integers over the index,
with no dense tensor and no numpy: verification packs each distinct
product into one int once, every axiom check compares one row of that
packed table with one other packed row, and associativity and the dual
law check the rows of a generating set, then every row in order for a
failing ring's witness (see verify_fusion_ring for the cost).  FP
dimensions come from a float power iteration, which converges on every
verified ring and is certified exactly on weakly integral ones.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Iterable, Mapping
from functools import cached_property
from itertools import chain
from operator import add

from ._value import Value, json_fields

Coeffs = dict[tuple[int, int, int], int]
Rows = list[list[dict[int, int]]]


class InvalidFusionRingError(ValueError):
    """An operation required a ring that passes axiom verification."""


class Coefficients(Mapping):
    """Read-only view of a fuse index as {(i, j, k): N_ij^k}, nonzero
    entries only.  len is the number of entries, counted on first use and
    kept; keys outside the index raise KeyError; items() runs row-major
    over (i, j).  Equal to any mapping with the same entries."""

    __slots__ = ("_rows", "_len")

    def __init__(self, rows: Rows) -> None:
        self._rows = rows
        self._len: int | None = None

    def __getitem__(self, key: tuple[int, int, int]) -> int:
        try:
            i, j, k = key
            if 0 <= i < len(self._rows) and 0 <= j < len(self._rows):
                return self._rows[i][j][k]
        except (TypeError, ValueError, KeyError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        if self._len is None:
            self._len = sum(map(len, chain.from_iterable(self._rows)))
        return self._len

    def items(self) -> "_Items":
        return _Items(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Coefficients) and len(self._rows) == len(other._rows):
            return self._rows == other._rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self):
        for i, row in enumerate(self._mapping._rows):
            for j, product in enumerate(row):
                for k, m in product.items():
                    yield (i, j, k), m


class FusionRing(Value, by_dict=False):
    """Sparse fusion-ring data, immutable.

    coeffs maps (i, j, k) -> N_ij^k; absent triples mean multiplicity 0.
    The constructor validates the structure (rank, lengths, a dual
    permutation, indices in range, positive multiplicities), then builds
    the fuse index, the one stored form of the rules, with j (x) i sharing
    the dict of an equal i (x) j (_index), and coeffs becomes a
    Coefficients view of it.  The library's own builders, whose rules
    satisfy the checks by construction, write the index directly
    (_of_rows), and so do pickle and deepcopy, which keep the index with
    its shared dicts.  The generators over the unit, axiom report, FP
    dimensions and universal grading are computed on first use and kept.
    """

    rank: int
    labels: tuple[str, ...]
    dual: tuple[int, ...]
    coeffs: Coefficients

    def __init__(
        self,
        rank: int,
        labels: Iterable[str],
        dual: Iterable[int],
        coeffs: Mapping[tuple[int, int, int], int],
    ) -> None:
        labels, dual = _checked_fields(rank, labels, dual, coeffs)
        self._keep(rank, labels, dual, _index(rank, coeffs))

    def _keep(self, rank: int, labels: tuple[str, ...], dual: tuple[int, ...], rows: Rows) -> None:
        self.__dict__.update(
            rank=rank, labels=labels, dual=dual, coeffs=Coefficients(rows), _rows=rows
        )

    @classmethod
    def _of_rows(
        cls, rank: int, labels: tuple[str, ...], dual: tuple[int, ...], rows: Rows
    ) -> "FusionRing":
        """The ring of a fuse index that meets the constructor's checks by
        construction; the ring keeps rows and every dict in them, so the
        caller must not change them."""
        ring = object.__new__(cls)
        ring._keep(rank, labels, dual, rows)
        return ring

    @classmethod
    def of_checked(
        cls, rank: int, labels: tuple[str, ...], dual: tuple[int, ...], coeffs: Coeffs
    ) -> "FusionRing":
        """The ring of fields that passed the constructor's checks, as
        check_json_dict returns them: builds the fuse index, rank^2 entries,
        and checks nothing."""
        return cls._of_rows(rank, labels, dual, _index(rank, coeffs))

    def n(self, i: int, j: int, k: int) -> int:
        return self.coeffs.get((i, j, k), 0)

    def fuse(self, i: int, j: int) -> dict[int, int]:
        """Components of i (x) j as {target index: multiplicity}.

        Returns the fuse index's own dict, which other products and other
        rings may share; do not mutate.
        """
        return self._rows[i][j]

    @cached_property
    def _report(self) -> "FusionReport":
        return _check_axioms(self)

    @cached_property
    def _fp(self) -> tuple[tuple[float, ...], tuple[int, ...] | None]:
        return _frobenius_perron(self)

    @cached_property
    def _grading(self) -> "GradingResult":
        return _universal_grading(self)

    @cached_property
    def _unit_generators(self) -> list[int]:
        return _generators(self, {0})

    def __reduce__(self):  # the fuse index itself, with its shared dicts
        return FusionRing._of_rows, (self.rank, self.labels, self.dual, self._rows)

    def require_verified(self) -> None:
        if not self._report.all_passed:
            bad = ", ".join(c.name for c in self._report.checks if not c.passed)
            raise InvalidFusionRingError(f"fusion axioms violated: {bad}")

    def with_coefficient(self, i: int, j: int, k: int, m: int) -> "FusionRing":
        """Copy of the ring with one coefficient overridden (0 deletes).

        The other coefficients already passed the constructor's checks, so
        only the new one is checked, a deletion too, with the constructor's
        messages.  The copy shares every product dict but the one it
        changes, and copies the outer list and row i.
        """
        _check_coefficient(self.rank, i, j, k, m, least=0)
        rows = list(self._rows)
        row = rows[i] = list(rows[i])
        product = row[j] = dict(row[j])
        if m:
            product[k] = m
        else:
            product.pop(k, None)
        return FusionRing._of_rows(self.rank, self.labels, self.dual, rows)

    def to_json_dict(self) -> dict:
        triples = sorted([i, j, k, m] for (i, j, k), m in self.coeffs.items())
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "dual": list(self.dual),
            "N": triples,
        }

    @staticmethod
    def check_json_dict(data: dict) -> tuple[int, tuple[str, ...], tuple[int, ...], Coeffs]:
        """Every check of from_json_dict, in its order, building nothing of
        size rank^2: the checked (rank, labels, dual, coeffs).
        from_json_dict(data) is of_checked(*check_json_dict(data)), so a
        caller that bounds the rank does so in between.  type(x) is int
        refuses bools and floats."""
        rank, labels, dual, rows = json_fields(data, "ring", ("rank", "labels", "dual", "N"))
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValueError("labels must be a list of strings")
        if not isinstance(dual, list) or any(type(d) is not int for d in dual):
            raise ValueError("dual must be a list of integers")
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != 4 or any(type(x) is not int for x in row)
            for row in rows
        ):
            raise ValueError("N rows must be integer [i, j, k, multiplicity]")
        coeffs = {(i, j, k): m for i, j, k, m in rows}
        if len(coeffs) != len(rows):
            raise ValueError("duplicate [i, j, k] rows in N")
        return (rank, *_checked_fields(rank, labels, dual, coeffs), coeffs)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FusionRing":
        """Load the JSON schema strictly (check_json_dict)."""
        return cls.of_checked(*cls.check_json_dict(data))


def _checked_fields(
    rank: int,
    labels: Iterable[str],
    dual: Iterable[int],
    coeffs: Mapping[tuple[int, int, int], int],
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The constructor's checks, in order; labels and dual as tuples."""
    labels, dual = tuple(labels), tuple(dual)
    if type(rank) is not int or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    if len(labels) != rank or len(dual) != rank:
        raise ValueError("labels and dual must have length rank")
    if not all(isinstance(s, str) for s in labels):
        raise ValueError(f"labels must be strings, got {labels!r}")
    if any(type(d) is not int for d in dual):
        raise ValueError(f"dual entries must be integers, got {dual!r}")
    if sorted(set(dual)) != list(range(rank)):
        raise ValueError("dual must be a permutation of the indices")
    for (i, j, k), m in coeffs.items():
        _check_coefficient(rank, i, j, k, m)
    return labels, dual


def _index(rank: int, coeffs: Mapping[tuple[int, int, int], int]) -> Rows:
    """The fuse index of checked coefficients, shaped as the builders shape
    theirs: every empty product is one shared dict, and j (x) i, j > i,
    shares the dict of i (x) j when the two are equal.  The upper-triangle
    dict is the one kept, so the sums of _frobenius_perron, which reads
    i (x) j for j >= i, run in the coefficients' own order."""
    empty: dict[int, int] = {}
    rows = [[empty] * rank for _ in range(rank)]
    for (i, j, k), m in coeffs.items():
        row = rows[i]
        if row[j] is empty:
            row[j] = {}
        row[j][k] = m
    for i, row in enumerate(rows):
        for j in range(i + 1, rank):
            if row[j] == rows[j][i]:
                rows[j][i] = row[j]
    return rows


def _check_coefficient(rank: int, i: int, j: int, k: int, m: int, least: int = 1) -> None:
    """Refuse N_ij^k = m unless i, j, k are indices of a rank-`rank` ring
    and m >= least (0 for a deletion), all of type int (so no bool or float)."""
    if not (type(i) is type(j) is type(k) is type(m) is int):
        raise ValueError(f"coefficient entries must be integers, got N{(i, j, k)}={m!r}")
    if not (0 <= i < rank and 0 <= j < rank and 0 <= k < rank):
        raise ValueError(f"coefficient index out of range: {(i, j, k)}")
    if m < least:
        raise ValueError(f"multiplicity must be positive, got N{(i, j, k)}={m}")


class AxiomCheck(Value):
    name: str
    passed: bool
    witness: tuple[int, ...] | None

    def __init__(self, name, passed, witness=None) -> None:
        self.__dict__.update(name=name, passed=passed, witness=witness)


class FusionReport(Value):
    checks: tuple[AxiomCheck, ...]

    def __init__(self, checks) -> None:
        self.__dict__["checks"] = checks

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "witness": list(c.witness) if c.witness else None,
                }
                for c in self.checks
            ],
        }


def verify_fusion_ring(ring: FusionRing) -> FusionReport:
    """Check the fusion axioms; failures are data (witnesses), not errors.

    Axiom families: unit law, dual/Frobenius law, commutativity, and
    associativity over all index quadruples.  Computed once per ring, in
    exact integers.  The axioms read one table of rank^2 packed ints
    (_packed_products): entry (i, j) holds N_ij^k in digit k of w bits, at
    most rank w bits, so the table takes at most rank^3 w bits.  Unit and
    commutativity compare rows with the identity row and with columns of
    the table, O(rank^2) int operations.  Associativity checks rows: row i
    costs sum_j |i (x) j| additions of rank packed ints plus sum_(j, k)
    |j (x) k| multiply-adds, about half of those on a commutative ring,
    whose scan computes the right side of each pair {j, k} once.  Only a
    generating set of rows is checked, three for SO(N)_2; when the unit
    law fails, 0 is not known to pass and joins the set.  When a
    generator fails, rows are scanned in order for the first witness.  A
    ring whose products never peel has every index as a generator.  The
    dual law reads digit 0 of every entry, O(rank^2) int operations, and
    checks N_ij^k = N_{i* k}^j on row i in sum_k |i* (x) k| terms plus
    rank comparisons: on the generator rows when the ring passes the other
    three axioms, on every row in order for any other ring and one whose
    generator row fails.  Only a non-commutative ring also builds a second
    packed table, of N_{k j*}^i, in O(nnz) shifts.  The library takes any
    size; join_cost bounds the full scan, and callers that take rings from
    outside should budget by it.
    """
    return ring._report


def join_cost(ring: FusionRing) -> int:
    """Budget of the associativity scan over every row: (rank^3 + 2 rank
    nnz) (1 + w // 64), w the digit width of the packed table.  Over all
    rows the scan adds rank packed ints per term of each i (x) j, multiplies
    one per term of each j (x) k and compares rank^3 pairs; a packed int
    spans at most rank digits, so wide multiplicities cost in proportion.
    It stays an upper bound when a commutative ring's scan computes each
    pair's right side once.  It reads each distinct product of the fuse
    index once (_distinct, a pass over its rank^2 entries), and every ring
    holds that index from its construction on, so a caller that takes
    rings from outside bounds the rank before the ring is built:
    FusionRing.check_json_dict, then of_checked."""
    rank, width = ring.rank, _digit_width(_distinct(ring._rows).values())
    return (rank**3 + 2 * rank * len(ring.coeffs)) * (1 + width // 64)


def _check_axioms(ring: FusionRing) -> FusionReport:
    """FusionRing._report.

    Every check compares one packed row with another, row by row
    (_row_difference), so the first differing entry j and its lowest
    differing digit k give the row-major witness (i, j, k).  Unit compares
    row 0, then column 0, with the identity row; commutativity row i with
    column i.  Associativity never reads the dual, so it is decided first.
    The dual law has the three parts of the row-major oracle, run in
    order, each to its first witness: N_ij^0 = delta_{j, i*} on digit 0
    of row i; N_ij^k = N_{i* k}^j against _dual_row, decided by the
    generator rows as associativity is when the ring passes the rest; and
    N_ij^k = N_{k j*}^i, which the second part implies on a commutative
    ring, against a packed table of its right side.  Every check reads
    only the packed table and the fuse index.
    """
    r = ring.rank
    table, w = packed = _packed_products(ring)

    # Stages run in order; the witness is the first mismatch of the first
    # failing one.  Entry j of column 0 is table[j][0], so its witness is
    # (j, 0, k).
    identity = [1 << w * j for j in range(r)]
    unit = _row_difference(0, table[0], identity, w)
    if unit is None and (column := _row_difference(0, [row[0] for row in table], identity, w)):
        unit = (column[1], 0, column[2])

    # Column i takes its entries left of the diagonal from row i: each row
    # j < i passed, so they are equal, and list comparison skips them by
    # identity.  A pair (i, j) that differs from (j, i) is met first, i < j.
    commutativity = _first_row(
        lambda i: _row_difference(i, table[i], table[i][:i] + [row[i] for row in table[i:]], w), r
    )

    # The x with (x y) z = x (y z) for all y, z form a subspace closed
    # under products, so the rows of a generating set decide the axiom;
    # the row-major first witness needs the rows in order.  The packed
    # table lives for this call only.
    gens = ring._unit_generators if unit is None else _generators(ring, set())
    commutative = commutativity is None
    associativity = _first_row(lambda i: _row_witness(ring, i, packed, commutative), r, gens)

    # The dual law in three parts.  Part 1, N_ij^0 = delta_{j, i*}: digit 0
    # of row i with the expected 1 cleared is zero.
    digit, zeros = (1 << w) - 1, [0] * r

    def unit_digits(i: int) -> tuple[int, int, int] | None:
        units = list(map(digit.__and__, table[i]))
        units[ring.dual[i]] ^= 1
        return _row_difference(i, units, zeros, w)

    dual = _first_row(unit_digits, r)

    # Part 2, N_ij^k = N_{i* k}^j: on a ring that passes the rest, the
    # generator rows decide it (_dual_row).
    if dual is None:
        deciding = None if unit or commutativity or associativity else ring._unit_generators
        dual = _first_row(
            lambda i: _row_difference(i, table[i], _dual_row(ring, i, w), w), r, deciding
        )

    # Part 3, N_ij^k = N_{k j*}^i, follows from part 2 and commutativity.
    # The table of N_{k j*}^i puts N_ab^c at (c, j) with j* = b; dual need
    # not be an involution in a ring that fails a law, so j = inverse[b].
    if dual is None and commutativity:
        inverse = sorted(range(r), key=ring.dual.__getitem__)
        third = [[0] * r for _ in range(r)]
        for a, row in enumerate(ring._rows):
            for b, product in enumerate(row):
                for c, m in product.items():
                    third[c][inverse[b]] += m << (w * a)
        dual = _first_row(lambda i: _row_difference(i, table[i], third[i], w), r)

    return FusionReport(
        (
            AxiomCheck("unit", unit is None, unit),
            AxiomCheck("dual", dual is None, dual),
            AxiomCheck("commutativity", commutative, commutativity),
            AxiomCheck("associativity", associativity is None, associativity),
        )
    )


def _row_difference(
    i: int, row: list[int], other: list[int], width: int
) -> tuple[int, int, int] | None:
    """(i, j, k) with j the first entry in which two packed rows differ and
    k the lowest digit of width bits in which they differ there; None when
    the rows are equal."""
    if row == other:
        return None
    j = next(j for j, (a, b) in enumerate(zip(row, other)) if a != b)
    low = row[j] ^ other[j]
    return (i, j, ((low & -low).bit_length() - 1) // width)


def _first_row(witness, rank: int, deciding=None):
    """The first witness(i) that is not None, rows in order; None at once
    when every row in deciding passes."""
    if deciding is not None and not any(map(witness, deciding)):
        return None
    return next(filter(None, map(witness, range(rank))), None)


def _dual_row(ring: FusionRing, i: int, width: int) -> list[int]:
    """Row i* of the fuse index packed by column: N_{i* k}^j in digit k of
    entry j, sum_k |i* (x) k| terms.  Row i of the packed table equals it
    iff N_ij^k = N_{i* k}^j for all j, k.

    Why the generator rows decide the law on a ring that passes unit,
    commutativity, associativity and N_ij^0 = delta_{j, i*}.  Then
    N_{i* i}^0 = 1, so i** = i: * is an involution, and N_ij^k =
    c(i, j, k*) with c(a, b, c) = (x_a x_b x_c)_0, symmetric in its
    arguments.  So row i passes iff c(i, j, k) = c(i*, j*, k*) for all
    j, k, that is iff x -> x* is multiplicative on row i: x_i x_y with
    each digit l moved to l* equals x_i* x_y* for every y.  The x on which
    it is multiplicative form a subspace that holds the unit and is closed
    under products, so when it holds on the generator rows it holds on
    every index (_generators), * is a ring automorphism, c is *-invariant,
    and N_{i* k}^j = c(i*, k, j*) = c(i, j, k*) = N_ij^k.  The generator
    rows are not redundant: the rank-3 ring with dual (0, 2, 1),
    x1^2 = x2, x1 x2 = 1 + x1 and x2^2 = x1 + x2 passes the other axioms
    and N_ij^0 = delta_{j, i*}, and fails at row 1 with (1, 1, 1).
    """
    column = [0] * ring.rank
    for k, dual_k in enumerate(ring._rows[ring.dual[i]]):
        shift = width * k
        for j, m in dual_k.items():
            column[j] += m << shift
    return column


def _generators(ring: FusionRing, known: set[int]) -> list[int]:
    """Indices G such that any subspace of the ring closed under products
    that holds G and the known indices holds every index.

    Peels: while some known x and g in G give an x (x) g with exactly one
    component outside the known set, that component is known too; when
    that stalls, the smallest unknown index becomes a generator.  SO(N)_2
    gives G = [Z, X1, Y1], a dihedral ring two rows and a pointed ring one.
    """
    rows, known, gens = ring._rows, set(known), []
    members = sorted(known)
    while len(known) < ring.rank:
        gens.append(min(set(range(ring.rank)) - known))
        known.add(gens[-1])
        members.append(gens[-1])
        grown = True
        while grown:
            grown = False
            for x in members:  # members grows while the loop runs
                for g in gens:
                    outside = [c for c in rows[x][g] if c not in known]
                    if len(outside) == 1:
                        known.add(outside[0])
                        members.append(outside[0])
                        grown = True
    return gens


def _distinct(rows: Rows) -> dict[int, dict[int, int]]:
    """Each product dict of a fuse index once, keyed by its id, in
    row-major order of first appearance."""
    return {id(product): product for product in chain.from_iterable(rows)}


def _digit_width(products: Iterable[dict[int, int]]) -> int:
    """The digit width w of the packed table of a ring whose distinct
    products are given, at least 1.

    Every coefficient of (x_i x_j) x_k or x_i (x_j x_k) is at most
    max_ij sum_m N_ij^m times max N < 2^w, and so is every N.
    """
    values = list(map(dict.values, products))
    fanout, top = max(map(sum, values)), max(chain.from_iterable(values), default=0)
    return max(1, (fanout * top).bit_length())


def _packed_products(ring: FusionRing) -> tuple[list[list[int]], int]:
    """The fuse index with each product packed into one int, P[m][k] =
    sum_l N_mk^l << (w l), and the digit width w (_digit_width).  Each
    distinct product dict (_distinct) is packed once, and the entries
    that share it share its int.

    Coefficients are non-negative, so sums of packed ints carry nothing
    from one digit to the next, and two such sums are equal exactly when
    the vectors they pack are.
    """
    distinct = _distinct(ring._rows)
    width = _digit_width(distinct.values())
    shifts = [width * l for l in range(ring.rank)]
    packed: dict[int, int] = {}
    for key, product in distinct.items():
        total = 0
        for l, a in product.items():
            total += a << shifts[l]
        packed[key] = total
    return [list(map(packed.__getitem__, map(id, row))) for row in ring._rows], width


def _combine(vectors, coefficients: dict[int, int], zero: list[int]):
    """sum_m coefficients[m] vectors[m], entry by entry."""
    terms = [
        vectors[m] if a == 1 else [a * p for p in vectors[m]] for m, a in coefficients.items()
    ]
    if len(terms) == 1:
        return terms[0]
    if len(terms) == 2:  # the common case, without a tuple per entry
        return list(map(add, *terms))
    return list(map(sum, zip(zero, *terms)))


def _row_witness(
    ring: FusionRing, i: int, packed: tuple[list[list[int]], int], commutative: bool
) -> tuple[int, int, int, int] | None:
    """First (i, j, k, l), row-major, with sum_m N_ij^m N_mk^l != sum_m
    N_jk^m N_im^l: the coefficient of l in (x_i x_j) x_k and x_i (x_j x_k).

    packed is _packed_products(ring), so each side is one int per (j, k):
    sum_m N_ij^m P[m][k], taken for all k at once, and sum_m N_jk^m P[i][m].
    The lowest set bit of their XOR lies in the digit of the first
    differing l.  commutative says the ring passed commutativity: then
    the right side at (j, k) equals the one at (k, j), so row j computes
    it for k >= j only and reads k < j from the rows before it, which
    passed and so equal their left sides.
    """
    table, width = packed
    rows, p_i, zero = ring._rows, table[i], [0] * ring.rank
    passed: list[list[int]] = []  # the rows before j, when commutative
    for j, ij in enumerate(rows[i]):
        lhs = _combine(table, ij, zero)
        rhs = [row[j] for row in passed]
        for jk in rows[j][len(rhs) :]:
            total = 0
            for m, a in jk.items():
                total += a * p_i[m]
            rhs.append(total)
        if lhs != rhs:
            return (i, *_row_difference(j, lhs, rhs, width))
        if commutative:
            passed.append(lhs)
    return None


def fp_dimensions(ring: FusionRing) -> list[float]:
    """Frobenius-Perron dimension of each simple object.

    The FP dimension of object i is the spectral radius of its fusion
    matrix L_i.  The vector d of them is the positive common eigenvector,
    L_i d = d_i d (Etingof-Nikshych-Ostrik), found by power iteration on
    R = sum_i L_i, which converges on a verified ring (_frobenius_perron).
    When the ring is weakly integral the squares a_i = d_i^2 are integers,
    the identity is certified exactly and d_i is math.sqrt(a_i); otherwise
    d is the float Perron vector.  Requires a ring that passes verification.
    """
    ring.require_verified()
    return list(ring._fp[0])


def _frobenius_perron(ring: FusionRing) -> tuple[tuple[float, ...], tuple[int, ...] | None]:
    """FusionRing._fp: the FP dimensions and, for a weakly integral ring,
    their exact squares (else None).

    Each squaring offers a_i = round(d_i^2) to _certified_squares.  A
    certified d = sqrt(a) is the FP vector however early it comes: the
    certificate is exact, so L_i d = d_i d; d_i d_i* >= N_ii*^0 d_0 = 1
    makes d positive; and a positive common eigenvector belongs to the
    spectral radius of every L_i.  The 1e-12 step rule stops the rest,
    rings that are not weakly integral, at the float Perron vector.

    Why the iteration converges on a verified ring.  For every k and j,
    pick i in k (x) j*; the dual law gives N_ij^k = N_{k j*}^i >= 1, so
    R_kj = sum_i N_ij^k >= 1.  A matrix with every entry positive has a
    simple Perron root, larger in absolute value than every other
    eigenvalue (Perron's theorem), so the normalized powers R^(2^t - 1) u
    converge to its positive eigenvector, a multiple of d.
    """
    # R v is the ring product u v with u = sum_i x_i, so squaring v = u^(2^t)
    # takes the power iteration from R^(2^t - 1) u to R^(2^(t+1) - 1) u.
    # The ring is commutative, so each pair {i, j} is summed once.
    r, rows, gens = ring.rank, ring._rows, ring._unit_generators
    v = [1.0 / r] * r
    for _ in range(64):
        w = [0.0] * r
        for i, row in enumerate(rows):
            vi = v[i]
            for k, m in row[i].items():
                w[k] += m * vi * vi
            twice = 2 * vi
            for j in range(i + 1, r):
                c = twice * v[j]
                for k, m in row[j].items():
                    w[k] += m * c
        total = sum(w)
        w = [x / total for x in w]
        step = max(abs(a - b) for a, b in zip(v, w))
        v = w
        dims = [x / v[0] for x in v]
        squares = _certified_squares(ring, [round(d * d) for d in dims], gens)
        if squares is not None:
            return tuple(math.sqrt(a) for a in squares), squares
        if step <= 1e-12 * max(w):
            break
    return tuple(dims), None


def _certified_squares(ring: FusionRing, a: list[int], gens: list[int]) -> tuple[int, ...] | None:
    """a when d_i = sqrt(a_i) satisfies L_i d = d_i d exactly, else None;
    gens is ring._unit_generators.

    sqrt(a) and sqrt(b) are rationally dependent iff ab is a square, so
    the objects fall into classes with representatives s_c, and sqrt(a_k)
    = t_k / sqrt(s_c) with t_k = isqrt(a_k s_c).  Square roots of distinct
    squarefree numbers are linearly independent over Q, so d_g d_j =
    sum_k N_gj^k d_k holds iff the terms of g (x) j fall in one class c
    and (sum N_gj^k t_k)^2 = a_g a_j s_c.  It is checked on the generator
    rows g: the x with L_x d a multiple of d form a subspace that holds
    the unit and, as L_xy = L_x L_y in a verified ring, is closed under
    products, hence every row; the unit component of L_x d = c d gives
    c = d_x.  A positive eigenvector of the non-negative L_x belongs to
    its spectral radius.
    """
    reps: list[int] = []
    cls: list[int] = []
    root: list[int] = []
    for ak in a:
        for c, s in enumerate(reps):
            t = math.isqrt(ak * s)
            if t * t == ak * s:
                break
        else:
            c, t = len(reps), ak
            reps.append(ak)
        cls.append(c)
        root.append(t)
    rows = ring._rows
    for g in gens:
        for j in range(ring.rank):
            sums: dict[int, int] = {}
            for k, m in rows[g][j].items():
                sums[cls[k]] = sums.get(cls[k], 0) + m * root[k]
            if len(sums) != 1:
                return None
            ((c, t),) = sums.items()
            if t * t != a[g] * a[j] * reps[c]:
                return None
    return tuple(a)


def global_dimension(ring: FusionRing) -> float:
    """Sum of squared FP dimensions."""
    return sum(d * d for d in fp_dimensions(ring))


class GradingResult(Value):
    """Universal grading: the finest grade-additive abelian group.

    grades[i] is the residue of object i when the group is cyclic of the
    given order (identity component = 0); for a non-cyclic group the
    grades are opaque component ids.
    """

    order: int
    grades: tuple[int, ...]
    cyclic: bool

    def __init__(self, order, grades, cyclic) -> None:
        self.__dict__.update(order=order, grades=grades, cyclic=cyclic)


def _closure(ring: FusionRing, seeds: set[int]) -> set[int]:
    """Smallest fusion- and dual-closed set containing the unit and seeds."""
    # Coefficients are non-negative, so the support of w (x) s is the union
    # of the supports of c (x) s over the components c of w: the closure
    # holds every component of every product of seeds and their duals, and
    # of nothing else.  A verified ring is commutative with N_ab^c =
    # N_{b* a*}^{c*}, so the closure is dual-closed too.
    steps = set(seeds) | {ring.dual[s] for s in seeds}
    closed, frontier = {0}, [0]
    while frontier:
        fresh = {c for a in frontier for s in steps for c in ring.fuse(a, s)} - closed
        closed |= fresh
        frontier = list(fresh)
    return closed


def universal_grading(ring: FusionRing) -> GradingResult:
    """Partition the simples into cosets of the adjoint subring.

    Fusion descends to the cosets and makes them an abelian group: the
    finest group grading of the ring.  Reported as cyclic (with residue
    grades) whenever it is.  Computed once per ring; later calls return
    the same result.
    """
    ring.require_verified()
    return ring._grading


def _universal_grading(ring: FusionRing) -> GradingResult:
    """FusionRing._grading, for a verified ring."""
    seeds = {c for i in range(ring.rank) for c in ring.fuse(i, ring.dual[i])}
    adjoint = _closure(ring, seeds)  # the components of every i (x) i*

    # Cosets are single steps: the adjoint set is fusion- and dual-closed,
    # so y in a (x) i for some adjoint a is already an equivalence.
    component = [-1] * ring.rank
    reps: list[int] = []  # the smallest member of each coset
    for i in range(ring.rank):
        if component[i] < 0:
            for y in {y for a in adjoint for y in ring.fuse(a, i)}:
                component[y] = len(reps)
            reps.append(i)

    order = len(reps)

    # Every component of a product lies in one coset: for a, b in x (x) y,
    # b lies in (x y)(x y)* (x) a = (x x*)(y y*) (x) a, whose components lie
    # in the adjoint closure times a.  So any one component gives the grade.
    def comp_mul(a: int, b: int) -> int:
        return component[next(iter(ring.fuse(reps[a], reps[b])))]

    identity = component[0]
    # Cyclic iff some component's powers sweep every component.
    for gen in range(order):
        residue: dict[int, int] = {identity: 0}
        cur = identity
        for step in range(1, order):
            cur = comp_mul(cur, gen)
            if cur in residue:
                break
            residue[cur] = step
        if len(residue) == order:
            grades = tuple(residue[component[i]] for i in range(ring.rank))
            return GradingResult(order=order, grades=grades, cyclic=True)
    return GradingResult(
        order=order, grades=tuple(component[i] for i in range(ring.rank)), cyclic=False
    )


def subring_generated(ring: FusionRing, generators: set[int]) -> FusionRing:
    """Smallest fusion- and dual-closed subring containing the generators.

    Simples keep their relative order and labels; coefficients are the
    restriction of the parent's.  A closure of every index is the ring
    itself.
    """
    ring.require_verified()
    if not generators or not all(type(g) is int and 0 <= g < ring.rank for g in generators):
        # Indices in order, then anything else by repr, so any set can be shown.
        shown = sorted(
            generators, key=lambda g: (type(g) is not int, g if type(g) is int else repr(g))
        )
        raise ValueError(f"need one or more object indices 0 <= g < {ring.rank}, got {shown}")
    kept = sorted(_closure(ring, generators))
    if len(kept) == ring.rank:
        return ring
    # The closure is fusion-closed, so the products of kept pairs stay
    # inside it; products the parent shares stay shared.
    index = {old: new for new, old in enumerate(kept)}
    rows = [[ring._rows[i][j] for j in kept] for i in kept]
    renamed = {key: {index[k]: m for k, m in p.items()} for key, p in _distinct(rows).items()}
    return FusionRing._of_rows(
        len(kept),
        tuple(ring.labels[i] for i in kept),
        tuple(index[ring.dual[i]] for i in kept),
        [list(map(renamed.__getitem__, map(id, row))) for row in rows],
    )


def pointed_cyclic_ring(n: int) -> FusionRing:
    """Group ring of Z_n: n invertible simples, [i] (x) [j] = [i+j]; the n
    products with one sum share one dict."""
    if type(n) is not int or n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    sums = [{k: 1} for k in range(n)]
    return FusionRing._of_rows(
        n,
        tuple(f"[{i}]" for i in range(n)),
        tuple((n - i) % n for i in range(n)),
        [sums[i:] + sums[:i] for i in range(n)],  # entry j of row i is sums[(i + j) % n]
    )


def _dihedral_rows(n: int, y0: int) -> Rows:
    """Fuse index of rank y0 + h, h = (n-1)/2, holding 1, Z (indices 0, 1)
    and Y_1..Y_h, with Y_i at index y0 - 1 + i: Z (x) Z = 1, Z fixes every
    Y_i, and Y_i (x) Y_j = Y_min(i+j, n-i-j) + Y_|i-j|, reading Y_0 as
    1 + Z.  For odd n every multiplicity is 1.  Indices 2..y0-1 have no
    products yet; i (x) j and j (x) i share one dict, as do all products
    with one result, and every empty product is one dict."""
    half, off = (n - 1) // 2, y0 - 1  # Y_i at index off + i
    empty: dict[int, int] = {}
    rows = [[empty] * (y0 + half) for _ in range(y0 + half)]
    rows[0][0] = rows[1][1] = {0: 1}
    rows[0][1] = rows[1][0] = {1: 1}
    for i in range(1, half + 1):
        yi = off + i
        rows[0][yi] = rows[yi][0] = rows[1][yi] = rows[yi][1] = {yi: 1}
        rows[yi][yi] = {0: 1, 1: 1, off + min(2 * i, n - 2 * i): 1}
        for j in range(i + 1, half + 1):
            yj = off + j
            rows[yi][yj] = rows[yj][yi] = {off + min(i + j, n - i - j): 1, off + j - i: 1}
    return rows


def dihedral_fusion(n: int) -> FusionRing:
    """Character ring of the dihedral group of order 2n, n odd >= 3.

    Objects: two invertibles 1, Z and (n-1)/2 two-dimensional objects
    Y_i with Y_i (x) Y_j = Y_min(i+j, n-i-j) + Y_|i-j|, reading Y_0 as
    1 + Z.
    """
    if type(n) is not int or n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n!r}")
    rank = 2 + (n - 1) // 2
    labels = ("1", "Z") + tuple(f"Y{i}" for i in range(1, rank - 1))
    return FusionRing._of_rows(rank, labels, tuple(range(rank)), _dihedral_rows(n, 2))

"""Fusion rings: sparse integer fusion coefficients, axiom verification,
Frobenius-Perron dimensions, universal grading, and subring extraction.

A fusion ring here is commutative (every category in scope is braided)
with a distinguished unit at index 0 and a dual involution on indices.
Labels are display metadata only; all semantics are by index.  A ring is
immutable and keeps its sparse rules, the fuse index and its axiom report.
Axiom verification and FP dimensions build a dense float tensor for one
call and import numpy there, so building a ring or reading its rules never
loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np

Coeffs = dict[tuple[int, int, int], int]


class InvalidFusionRingError(ValueError):
    """An operation required a ring that passes axiom verification."""


@dataclass(frozen=True)
class FusionRing:
    """Sparse fusion-ring data, immutable.

    coeffs maps (i, j, k) -> N_ij^k; absent triples mean multiplicity 0.
    rank * max(m)^2 < 2^53 keeps every float64 axiom sum exact.
    """

    rank: int
    labels: tuple[str, ...]
    dual: tuple[int, ...]
    coeffs: Mapping[tuple[int, int, int], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dual", tuple(self.dual))
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))
        if type(self.rank) is not int or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        if len(self.labels) != self.rank or len(self.dual) != self.rank:
            raise ValueError("labels and dual must have length rank")
        if sorted(set(self.dual)) != list(range(self.rank)):
            raise ValueError("dual must be a permutation of the indices")
        for (i, j, k), m in self.coeffs.items():
            if not (0 <= i < self.rank and 0 <= j < self.rank and 0 <= k < self.rank):
                raise ValueError(f"coefficient index out of range: {(i, j, k)}")
            if m <= 0:
                raise ValueError(f"multiplicity must be positive, got N{(i, j, k)}={m}")
        if self.rank * max(self.coeffs.values(), default=0) ** 2 >= 2**53:
            raise ValueError("multiplicities too large: need rank * max(m)^2 < 2^53")

    def n(self, i: int, j: int, k: int) -> int:
        return self.coeffs.get((i, j, k), 0)

    def fuse(self, i: int, j: int) -> dict[int, int]:
        """Components of i (x) j as {target index: multiplicity}.

        Returns a shared internal dict; do not mutate.
        """
        return self._rows[i][j]

    @cached_property
    def _rows(self) -> list[list[dict[int, int]]]:
        rows: list = [[{} for _ in range(self.rank)] for _ in range(self.rank)]
        for (a, b, k), m in self.coeffs.items():
            rows[a][b][k] = m
        return rows

    @cached_property
    def _report(self) -> "FusionReport":
        return _check_axioms(self)

    def __reduce__(self):  # a mappingproxy cannot be pickled; rebuild from a dict
        return FusionRing, (self.rank, self.labels, self.dual, dict(self.coeffs))

    def require_verified(self) -> None:
        if not self._report.all_passed:
            bad = ", ".join(c.name for c in self._report.checks if not c.passed)
            raise InvalidFusionRingError(f"fusion axioms violated: {bad}")

    def with_coefficient(self, i: int, j: int, k: int, m: int) -> "FusionRing":
        """Copy of the ring with one coefficient overridden (0 deletes)."""
        coeffs = dict(self.coeffs)
        if m == 0:
            coeffs.pop((i, j, k), None)
        else:
            coeffs[(i, j, k)] = m
        return FusionRing(self.rank, self.labels, self.dual, coeffs)

    def to_json_dict(self) -> dict:
        triples = sorted([i, j, k, m] for (i, j, k), m in self.coeffs.items())
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "dual": list(self.dual),
            "N": triples,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FusionRing":
        """Load the JSON schema strictly; type(x) is int refuses bools and floats."""
        labels, dual, rows = data["labels"], data["dual"], data["N"]
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValueError("labels must be a list of strings")
        if not isinstance(dual, list) or any(type(d) is not int for d in dual):
            raise ValueError("dual must be a list of integers")
        if any(type(x) is not int for row in rows for x in row):
            raise ValueError("N rows must be integer [i, j, k, multiplicity]")
        coeffs = {(i, j, k): m for i, j, k, m in rows}
        if len(coeffs) != len(rows):
            raise ValueError("duplicate [i, j, k] rows in N")
        return cls(data["rank"], labels, dual, coeffs)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class FusionReport:
    checks: tuple[AxiomCheck, ...]

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


def _dense(ring: FusionRing) -> np.ndarray:
    """Dense (rank, rank, rank) float coefficient tensor, built per call."""
    import numpy as np

    t = np.zeros((ring.rank,) * 3)
    for (i, j, k), m in ring.coeffs.items():
        t[i, j, k] = m
    return t


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> tuple[int, ...] | None:
    import numpy as np

    bad = np.argwhere(a != b)
    if bad.size == 0:
        return None
    return tuple(int(x) for x in bad[0])


def verify_fusion_ring(ring: FusionRing) -> FusionReport:
    """Check the fusion axioms; failures are data (witnesses), not errors.

    Axiom families: unit law, dual/Frobenius law, commutativity, and
    associativity over all index quadruples.  Computed once per ring.
    """
    return ring._report


def _check_axioms(ring: FusionRing) -> FusionReport:
    """FusionRing._report.  Associativity, sum_m N_ij^m N_mk^l == sum_m
    N_jk^m N_im^l, runs one i at a time in O(rank^3) memory."""
    import numpy as np

    t = _dense(ring)
    r = ring.rank
    eye = np.eye(r)

    # Stages run in order; the witness is the first mismatch of the first failing one.
    w = _first_mismatch(t[:1], eye[None]) or _first_mismatch(t[:, :1], eye[:, None])
    checks = [AxiomCheck("unit", w is None, w)]

    # N_ij^0 = delta_{j, dual(i)}, then the two Frobenius rotations.
    dual = list(ring.dual)
    w = (
        _first_mismatch(t[:, :, :1], eye[dual][:, :, None])
        or _first_mismatch(t, t[dual].transpose(0, 2, 1))
        or _first_mismatch(t, t[:, dual, :].transpose(2, 1, 0))
    )
    checks.append(AxiomCheck("dual", w is None, w))

    w = _first_mismatch(t, t.transpose(1, 0, 2))
    checks.append(AxiomCheck("commutativity", w is None, w))

    w = None
    for i in range(r):
        lhs = t[i] @ t.reshape(r, r * r)  # (j, k*r + l) = sum_m t[i,j,m] t[m,k,l]
        rhs = t.reshape(r * r, r) @ t[i]  # (j*r + k, l) = sum_m t[j,k,m] t[i,m,l]
        jkl = _first_mismatch(lhs.reshape(r, r, r), rhs.reshape(r, r, r))
        if jkl is not None:
            w = (i, *jkl)
            break
    checks.append(AxiomCheck("associativity", w is None, w))

    return FusionReport(tuple(checks))


def fp_dimensions(ring: FusionRing) -> list[float]:
    """Frobenius-Perron dimension of each simple object.

    The FP dimension of object i is the spectral radius of its fusion
    matrix, which for a non-negative integer matrix is its largest real
    eigenvalue.  Requires a ring that passes verification.
    """
    import numpy as np

    ring.require_verified()
    t = _dense(ring)
    return [float(np.max(np.linalg.eigvals(t[i]).real)) for i in range(ring.rank)]


def global_dimension(ring: FusionRing) -> float:
    """Sum of squared FP dimensions."""
    return sum(d * d for d in fp_dimensions(ring))


@dataclass(frozen=True)
class GradingResult:
    """Universal grading: the finest grade-additive abelian group.

    grades[i] is the residue of object i when the group is cyclic of the
    given order (identity component = 0); for a non-cyclic group the
    grades are opaque component ids.
    """

    order: int
    grades: tuple[int, ...]
    cyclic: bool


def _closure(ring: FusionRing, seeds: set[int]) -> set[int]:
    """Smallest fusion- and dual-closed set containing the unit and seeds."""
    closed = {0} | set(seeds) | {ring.dual[s] for s in seeds}
    frontier = list(closed)
    while frontier:
        fresh = {c for a in closed for b in frontier for c in ring.fuse(a, b)} - closed
        fresh |= {ring.dual[c] for c in fresh} - closed
        closed |= fresh
        frontier = list(fresh)
    return closed


def universal_grading(ring: FusionRing) -> GradingResult:
    """Partition the simples into cosets of the adjoint subring.

    Fusion descends to the cosets and makes them an abelian group: the
    finest group grading of the ring.  Reported as cyclic (with residue
    grades) whenever it is.
    """
    ring.require_verified()
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

    def comp_mul(a: int, b: int) -> int:
        targets = {component[k] for k in ring.fuse(reps[a], reps[b])}
        if len(targets) != 1:
            raise InvalidFusionRingError(
                f"fusion is not grade-additive on components {a}, {b}"
            )
        return targets.pop()

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
    restriction of the parent's.
    """
    ring.require_verified()
    if not generators or not all(0 <= g < ring.rank for g in generators):
        raise ValueError(
            f"need one or more object indices 0 <= g < {ring.rank}, "
            f"got {sorted(generators)}"
        )
    closed = _closure(ring, generators)
    kept = sorted(closed)
    index = {old: new for new, old in enumerate(kept)}
    coeffs = {
        (index[i], index[j], index[k]): m
        for (i, j, k), m in ring.coeffs.items()
        if i in closed and j in closed and k in closed
    }
    return FusionRing(
        rank=len(kept),
        labels=tuple(ring.labels[i] for i in kept),
        dual=tuple(index[ring.dual[i]] for i in kept),
        coeffs=coeffs,
    )


def pointed_cyclic_ring(n: int) -> FusionRing:
    """Group ring of Z_n: n invertible simples, [i] (x) [j] = [i+j]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    coeffs = {(i, j, (i + j) % n): 1 for i in range(n) for j in range(n)}
    return FusionRing(
        rank=n,
        labels=tuple(f"[{i}]" for i in range(n)),
        dual=tuple((n - i) % n for i in range(n)),
        coeffs=coeffs,
    )


def _dihedral_rules(n: int, y0: int) -> Coeffs:
    """Fusion coefficients of 1, Z (indices 0, 1) and Y_1..Y_h, h = (n-1)/2,
    with Y_i at index y0 - 1 + i: Z (x) Z = 1, Z fixes every Y_i, and
    Y_i (x) Y_j = Y_min(i+j, n-i-j) + Y_|i-j|, reading Y_0 as 1 + Z.  For
    odd n every multiplicity is 1."""
    half, off = (n - 1) // 2, y0 - 1  # Y_i at index off + i
    coeffs: Coeffs = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    for i in range(1, half + 1):
        yi = off + i
        coeffs[0, yi, yi] = coeffs[yi, 0, yi] = coeffs[yi, yi, 0] = 1
        coeffs[1, yi, yi] = coeffs[yi, 1, yi] = coeffs[yi, yi, 1] = 1
        for j in range(1, half + 1):
            coeffs[yi, off + j, off + min(i + j, n - i - j)] = 1
            if i != j:
                coeffs[yi, off + j, off + abs(i - j)] = 1
    return coeffs


def dihedral_fusion(n: int) -> FusionRing:
    """Character ring of the dihedral group of order 2n, n odd >= 3.

    Objects: two invertibles 1, Z and (n-1)/2 two-dimensional objects
    Y_i with Y_i (x) Y_j = Y_min(i+j, n-i-j) + Y_|i-j|, reading Y_0 as
    1 + Z.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    rank = 2 + (n - 1) // 2
    labels = ("1", "Z") + tuple(f"Y{i}" for i in range(1, rank - 1))
    return FusionRing(rank, labels, tuple(range(rank)), _dihedral_rules(n, 2))

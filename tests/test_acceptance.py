"""Acceptance suite: every criterion at its stated range and tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s` or by
running this file directly) and asserts.  The whole suite is expected to
finish in well under a minute on one core.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import traceback
from math import gcd
from pathlib import Path

from modcat.cli import run
from modcat.cyclic import (
    build_cyclic,
    canonical_invariant,
    classify,
    condense_subgroup,
    gauss_sum,
    is_quantum_double,
    modular_relation_residuals,
    verify_balancing,
)
from modcat.fusion import (
    dihedral_fusion,
    fp_dimensions,
    subring_generated,
    verify_fusion_ring,
)
from modcat.metaplectic import (
    condense_z2,
    count_metaplectic,
    is_tambara_yamagami,
    reconstruct_group,
    so_n2_fusion,
)
from modcat.numthy import distinct_primes

TOL = 1e-9


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {num:>2} {name:<28} {status}{suffix}", flush=True)
    return ok


def coprime_range(n: int):
    if n == 1:
        return [0]
    return [k for k in range(1, n) if gcd(k, n) == 1]


def _orbit_partition(n: int) -> set[frozenset[int]]:
    units = coprime_range(n)
    squares = {u * u % n for u in units}
    return {frozenset(u * s % n for s in squares) for u in units}


def _recombination_failure(n: int, k: int, parts) -> int | None:
    """First label j of C(n, k) whose twist k j^2 / n is not the sum of the
    stored factor twists at its CRT coordinates; None if all recombine."""
    scaled = []  # per factor: inverse of its cofactor, twists in units of 1/n
    for part in parts:
        inv = pow(n // part.n, -1, part.n) if part.n > 1 else 0
        nums = [r * (n // part.denominator) for r in part.residues]
        scaled.append((inv, part.n, nums))
    for j in range(n):
        total = sum(nums[j * inv % pn] for inv, pn, nums in scaled)
        if (k * j * j - total) % n:
            return j
    return None


def test_criterion_1_classification_count():
    ok = True
    for pp in (3, 5, 7, 9, 25, 27, 49, 81):
        ok &= len(classify(pp)) == 2
    for n in range(1, 226, 2):
        expected = 2 ** len(distinct_primes(n))
        reps = classify(n)  # unit-square orbit route
        ok &= len(reps) == expected
        # Independent route: partition all units by Jacobi descriptor.
        by_descriptor: dict = {}
        for k in coprime_range(n):
            by_descriptor.setdefault(canonical_invariant(n, k), set()).add(k)
        ok &= len(by_descriptor) == expected
        # Exact agreement of the two partitions; the representatives are
        # the orbit minima.
        orbits = _orbit_partition(n)
        ok &= {frozenset(v) for v in by_descriptor.values()} == orbits
        ok &= reps == sorted(min(orbit) for orbit in orbits)
    assert _report(1, "classification count", ok)


def test_criterion_2_metaplectic_count():
    ok = True
    for n, expected in ((3, 4), (9, 4), (15, 8), (45, 8), (105, 16)):
        ok &= count_metaplectic(n) == expected
    for n in range(3, 226, 2):
        ok &= count_metaplectic(n) == 2 * len(classify(n))
    assert _report(2, "metaplectic count 2^(s+1)", ok)


def test_criterion_3_so_n2_fusion_validity():
    ok = True
    for n in range(3, 100, 2):
        ring = so_n2_fusion(n)
        ok &= verify_fusion_ring(ring).all_passed
        dims = fp_dimensions(ring)
        root = math.sqrt(n)
        expected = [1.0, 1.0, root, root] + [2.0] * ((n - 1) // 2)
        ok &= all(abs(a - b) <= TOL for a, b in zip(dims, expected))
        ok &= abs(sum(d * d for d in dims) - 4 * n) <= TOL
    assert _report(3, "SO(N)_2 fusion validity", ok)


def test_criterion_4_condensation_lemmas():
    ok = True
    for n in range(3, 100, 2):
        data = condense_z2(so_n2_fusion(n), 1)
        ok &= len(data.d0) == n
        ok &= all(abs(o.dim - 1.0) <= TOL for o in data.d0)
        ok &= len(data.d1) == 1
        ok &= abs(data.d1[0].dim - math.sqrt(n)) <= TOL
        group = reconstruct_group(data)  # raises on any group-law inconsistency
        ok &= group.order == n and group.cyclic
        ok &= sorted(group.assignment.values()) == list(range(n))
        ok &= is_tambara_yamagami(data).is_ty
    assert _report(4, "condensation to Z_N + TY", ok)


def test_criterion_5_balancing_equation():
    ok = True
    for n in range(1, 100, 2):
        for k in coprime_range(n):
            ok &= verify_balancing(build_cyclic(n, k)).passed
    assert _report(5, "balancing equation", ok)


def test_criterion_6_direct_product_decomposition():
    from modcat.cyclic import decompose

    ok = True
    for n in range(1, 226, 2):
        for k in coprime_range(n):
            parts = decompose(n, k)
            ok &= math.prod(p.n for p in parts) == max(n, 1)
            ok &= all(p.k == k * (n // p.n) % p.n for p in parts) or n == 1
            ok &= _recombination_failure(n, k, parts) is None
    for m in range(1, 46, 2):
        for n in range(m + 2, 46, 2):
            if gcd(m, n) != 1:
                continue
            for k in (1, 2, 7, m * n - 1):
                if gcd(k, m * n) != 1:
                    continue
                lhs = gauss_sum(m * n, k)
                rhs = gauss_sum(m, k * n) * gauss_sum(n, k * m)
                ok &= abs(lhs - rhs) <= TOL
    assert _report(6, "direct-product decomposition", ok)


def test_criterion_7_quantum_double():
    ok = True
    for n in (9, 25, 49, 81):
        for k in coprime_range(n):
            ok &= is_quantum_double(build_cyclic(n, k))
    for n in (3, 5, 15, 27, 45):
        for k in coprime_range(n):
            ok &= not is_quantum_double(build_cyclic(n, k))
    outcome = condense_subgroup(build_cyclic(9, 1), {0, 3, 6})
    ok &= outcome.lagrangian and outcome.quotient.n == 1
    assert _report(7, "quantum-double detection", ok)


def test_criterion_8_dihedral_subcategory():
    ok = True
    for n in range(3, 100, 2):
        sub = subring_generated(so_n2_fusion(n), {4})
        ok &= sub == dihedral_fusion(n)
    assert _report(8, "dihedral subring identity", ok)


def test_criterion_9_modular_relations():
    ok = True
    worst = 0.0
    for n in range(1, 100, 2):
        for k in coprime_range(n):
            e1, e2 = modular_relation_residuals(build_cyclic(n, k))
            worst = max(worst, e1, e2)
            ok &= e1 <= TOL and e2 <= TOL
    assert _report(9, "modular relations (ST)^3, S^4", ok, f"max err {worst:.2e}")


def test_criterion_10_cli_roundtrip():
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(3, 100, 2):
            first = run(["so2", "fusion", str(n), "--format", "json"])
            second = run(["so2", "fusion", str(n), "--format", "json"])
            ok &= first.status == 0 and first.table == second.table
            path = Path(tmp) / f"so{n}.json"
            path.write_text(first.table)
            verified = run(["ring", "verify", "--file", str(path)])
            ok &= verified.status == 0
        # A broken file must exit 2, distinctly from parse errors.
        data = json.loads(run(["so2", "fusion", "5", "--format", "json"]).table)
        data["N"] = [row for row in data["N"] if row[:3] != [4, 5, 5]]
        bad = Path(tmp) / "broken.json"
        bad.write_text(json.dumps(data))
        ok &= run(["ring", "verify", "--file", str(bad)]).status == 2
    assert _report(10, "CLI round-trip, byte-stable", ok)


def test_runner_fails_a_raising_criterion_and_runs_the_rest(monkeypatch, capsys):
    """main() prints a FAIL line and the traceback for a criterion that
    raises something other than AssertionError, runs the later criteria,
    and exits 1."""
    this_module = sys.modules[__name__]
    ran = []
    for name in dir(this_module):
        if name.startswith("test_criterion_"):
            monkeypatch.setattr(this_module, name, lambda name=name: ran.append(name))

    def raising():
        raise KeyError("boom")

    monkeypatch.setattr(this_module, "test_criterion_2_metaplectic_count", raising)
    assert main() == 1
    out, err = capsys.readouterr()
    assert out == f"acceptance  2 {'metaplectic count':<28} FAIL  (KeyError('boom'))\n"
    assert err.startswith("Traceback") and err.endswith("KeyError: 'boom'\n")
    assert len(ran) == 9 and ran[-1] == "test_criterion_10_cli_roundtrip"


def main() -> int:
    failures = 0
    this_module = sys.modules[__name__]
    names = [n for n in dir(this_module) if n.startswith("test_criterion_")]
    for name in sorted(names, key=lambda n: int(n.split("_")[2])):
        try:
            getattr(this_module, name)()
        except AssertionError:  # the criterion printed its FAIL line
            failures += 1
        except Exception as exc:  # it raised before printing: fail it, run the rest
            failures += 1
            _, _, num, label = name.split("_", 3)
            _report(int(num), label.replace("_", " "), False, repr(exc))
            traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Walk through the Z_2 condensation of an SO(N)_2 fusion ring.

Builds the ring, verifies the fusion axioms, prints the quantum
dimensions, condenses the boson Z, reconstructs the cyclic group law on
the identity sector, and reports the Tambara-Yamagami recognition.

Usage: python3 scripts/condense_so2_demo.py [N ...]   (odd N >= 3)
"""

from __future__ import annotations

import argparse

from modcat.fusion import fp_dimensions, verify_fusion_ring
from modcat.metaplectic import (
    condense_z2,
    count_metaplectic,
    is_tambara_yamagami,
    reconstruct_group,
    so_n2_fusion,
)


def demo(n: int) -> None:
    ring = so_n2_fusion(n)
    report = verify_fusion_ring(ring)
    dims = fp_dimensions(ring)
    print(f"SO({n})_2: rank {ring.rank}, axioms "
          f"{'pass' if report.all_passed else 'FAIL'}")
    print("  dims:", ", ".join(f"{l}={d:.4f}" for l, d in zip(ring.labels, dims)))
    print(f"  global dimension: {sum(d * d for d in dims):.6f} (= 4N = {4 * n})")

    data = condense_z2(ring, 1)
    group = reconstruct_group(data)
    print(f"  condensed by Z: |D0| = {len(data.d0)} invertibles, "
          f"|D1| = {len(data.d1)} object of dim {data.d1[0].dim:.4f}")
    print(f"  total squared dimension halves: {data.total_squared_dim():.6f}")
    assignment = ", ".join(
        f"{obj.name}->{obj.group_elem}" for obj in group.data.d0
    )
    print(f"  identity sector group: Z_{group.order} via {assignment}")
    ty = is_tambara_yamagami(data)
    print(f"  Tambara-Yamagami: {'yes' if ty.is_ty else 'no'}; "
          f"{count_metaplectic(n)} metaplectic classes for N = {n}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=int, nargs="*", default=[3, 5, 9, 15])
    args = parser.parse_args()
    for n in args.n:
        demo(n)


if __name__ == "__main__":
    main()

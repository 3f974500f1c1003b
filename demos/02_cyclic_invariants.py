"""Cyclic invariants decide projective equivalence.

The products M_{i1 i2} ... M_{ik i1} around index cycles are invariant
under positive diagonal conjugation, and five of them generate all the
rest.  This script prints the full invariant table of a point, verifies
the eleven derived identities, and shows that a diagonally conjugated
Cartan matrix is recognized as the same point while a genuinely moved
point is not.
"""

import numpy as np

from projcox import QuadPrismOrders, build_standard, projectively_equivalent
from projcox.cartan import (GENERATING_CYCLES, cyclic_invariants,
                            derived_invariant_identities)

orders = QuadPrismOrders(3, 3, 3, 3)
point = build_standard(orders, t13=6.0, t24=6.0, v23=-1.0, v24=-1.0, v34=-1.0)
m = point.cartan

invariants = cyclic_invariants(m)
print("generating invariants:")
for cycle in GENERATING_CYCLES:
    print(f"  {cycle}: {invariants[cycle]: .6f}")

identities = derived_invariant_identities(invariants, orders)
print(f"\n11 derived identities pass: {identities.passed} "
      f"(worst residual {max(check.value for check in identities):.2e})")

# conjugating by a positive diagonal matrix is a gauge move
rng = np.random.default_rng(0)
d = np.exp(rng.uniform(-1.0, 1.0, 4))
conjugated = m * np.outer(d, 1.0 / d)
print(f"\nD M D^-1 equivalent to M: {projectively_equivalent(m, conjugated)}")

# moving a chart coordinate changes the invariants
moved = build_standard(orders, 6.0, 6.0, -1.5, -1.0, -1.0).cartan
print(f"moved point equivalent to M: {projectively_equivalent(m, moved)}")

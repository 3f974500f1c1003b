"""Orbifold bookkeeping and the convex-cocompactness criterion.

The underlying 2-orbifold of the quadrilateral prism is the disk with
four corner reflectors.  Its exact Euler characteristic feeds the
classical dimension counts, and the prism group is convex cocompact
exactly when both infinite-edge invariants exceed 4 strictly.
"""

import numpy as np

from projcox import (GeneralChartParams, QuadPrismOrders, build_general,
                     cg05_dim, d_tp, euler_characteristic,
                     is_convex_cocompact, quadrilateral_signature,
                     teichmuller_dim)

sig = quadrilateral_signature(3, 3, 3, 3)
chi = euler_characteristic(sig)
print("D^2(;3,3,3,3):")
print(f"  chi                  = {chi}  (exact rational)")
print(f"  Teichmuller dim      = {teichmuller_dim(sig)}")
print(f"  type-preserving d_tp = {d_tp(sig)}")
print(f"  closed-orbifold dim  = {cg05_dim(sig)}")

orders = QuadPrismOrders(3, 3, 3, 3)
print("\ncocompactness over (T13, T24), other coordinates fixed at -1:")
ts = [4.0, 4.5, 6.0, 8.0]
header = "        " + "".join(f"T24={t:<6}" for t in ts)
print(header)
for t13 in ts:
    row = f"T13={t13:<4}"
    for t24 in ts:
        p = GeneralChartParams(orders, t13, t24, -1.0, -1.0, -1.0)
        m = build_general(p).cartan
        row += "   yes   " if is_convex_cocompact(m, orders) else "   no    "
    print(row)
print("(the boundary T = 4 is a valid deformation but not cocompact)")

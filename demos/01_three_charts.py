"""Build one point in each deformation chart and certify it.

The quadrilateral prism with edge orders (n12, n23, n34, n14) and free
(1,3), (2,4) edges has three overlapping charts.  This script builds a
point in each, prints the Cartan matrix, and runs the Coxeter-relation
and Vinberg checks.
"""

import numpy as np

from projcox import (ConcurrentChartParams, GeneralChartParams,
                     QuadPrismOrders, build_concurrent, build_general,
                     build_standard, cartan_of, check_vinberg,
                     realize_representation, verify_relations)

np.set_printoptions(precision=4, suppress=True)

orders = QuadPrismOrders(3, 4, 5, 6)
print(f"orders: n12={orders.n12} n23={orders.n23} "
      f"n34={orders.n34} n14={orders.n14}")


def certify(name, system):
    m = cartan_of(system)
    relations = verify_relations(system, orders)
    vinberg = check_vinberg(system, orders)
    print(f"\n--- {name} ---")
    print("Cartan matrix:")
    print(m)
    print(f"T13 = {m[0, 2] * m[2, 0]:.4f}   T24 = {m[1, 3] * m[3, 1]:.4f}")
    print(f"relations pass: {relations.passed}   "
          f"Vinberg pass: {vinberg.passed}")


# general chart: alphas are the dual basis, T13 and T24 are free >= 4
general = GeneralChartParams(orders, t13=9.0, t24=5.0,
                             v23=-2.0, v24=-0.5, v34=-3.0)
certify("general chart", build_general(general))

# concurrent chart: alpha_4 = e1* - e2* + e3*, the four mirrors pass
# through a common point; v44 = 0 is the semisimple slice
concurrent = ConcurrentChartParams(orders, v12=-1.0, v23=-1.0,
                                   v14=-1.0, v34=-1.0)
certify("concurrent chart (all -1)", build_concurrent(concurrent))

# standard chart: gauge-fixed coordinates; the dependent quantities
# (a1, a2, a3, a4*v44) come out of a linear solve
point = build_standard(orders, t13=6.0, t24=6.0,
                       v23=-1.0, v24=-1.0, v34=-1.0)
print(f"\nstandard-chart solve: a = ({point.a1:.4f}, {point.a2:.4f}, "
      f"{point.a3:.4f}), a4*v44 = {point.a4_v44:.4f}")
certify("standard chart", realize_representation(point, a4=1.0))

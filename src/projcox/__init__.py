"""Deformation spaces of convex projective structures on the
quadrilateral-prism Coxeter orbifold.

The package parametrizes the three deformation charts of the 4-sided
Coxeter polytope with two infinite edge orders, checks Vinberg's
conditions, classifies semisimplicity, computes cyclic invariants, and
certifies convex cocompactness.  See README.md for an overview and the
demos/ directory for worked examples.
"""

from . import errors
from .cartan import (ReflectionSystem, cartan_of, check_vinberg,
                     cyclic_invariants, derived_invariant_identities,
                     projectively_equivalent)
from .certify import (concurrent_t_scan, det_locus_check, is_convex_cocompact,
                      standard_scan, verify_relations)
from .charts import (CaseLabel, ConcurrentChartParams, GeneralChartParams,
                     SimplexChartParams, StandardChartPoint, build_concurrent,
                     build_general, build_simplex, build_standard,
                     classify_case, concurrent_to_standard, is_semisimple,
                     realize_representation, standard_coordinates)
from .orbifold import (INFINITY, EdgeOrders, OrbifoldSignature,
                       QuadPrismOrders, cg05_dim, d_tp, euler_characteristic,
                       mu, quadrilateral_signature, teichmuller_dim)

__version__ = "0.1.0"

"""The ``certify`` workload: one chart point at a time through the scalar
path, each verdict checked against the label its generator knows.

Point mix (drawn from the seed):
* equal thirds across the general, concurrent and standard charts, at
  edge orders 3-6 and |v| in [e^-1, e^1] (the acceptance-test domain);
* about 1 point in 8 a general point with one [v] entry mutated as in
  acceptance criterion 2 (a sign flip, or T13 dropped to 3.9), which
  Vinberg's conditions and the relations must reject;
* about 1 point in 8 with all four orders drawn from {100, 400, 1000}.
  They are valid, but ``verify_relations`` rejects most of them: the
  known false failure of repeated squaring against a fixed tolerance.
  It also rejects about 1 standard point in 30000 at orders 3-6, where
  a4*v44 is large.  The oracle counts these rejections apart from
  failed operations (run.oracle), so a fix shows as fewer of them;
* about 1 point in 32 a general point exactly on T13 = 4: valid but not
  convex cocompact.
"""

from __future__ import annotations

import math
import time

import numpy as np

from projcox import cartan, certify, charts, orbifold
from projcox.cartan import ReflectionSystem
from projcox.errors import ProjCoxError

GENERAL, CONCURRENT, STANDARD = "general", "concurrent", "standard"
NORMAL, MUTATED, LARGE, ON_T4 = "normal", "mutated", "large", "t13=4"

SMALL_ORDERS = (3, 4, 5, 6)
LARGE_ORDERS = (100, 400, 1000)

#: outcome fields; ``None`` where a step does not apply to the point
FIELDS = ("vinberg", "relations", "cartan_error", "cocompact", "identities",
          "equivalent", "case", "semisimple")
RELATIONS = FIELDS.index("relations")

_REFERENCE_MATRIX = np.arange(1.0, 17.0).reshape(4, 4) / 16.0
#: time of one reference task on the machine the benchmark was tuned on
REFERENCE_NOMINAL_NS = 370_000


class CertifyLoad:
    throughput_kinds = latency_kinds = tail_kinds = ("point",)
    reference_every_s = 0.02
    reference_nominal_ns = REFERENCE_NOMINAL_NS

    def __init__(self, small: bool = False):
        self.pool_size = 256 if small else 16384
        self.round_size = 32 if small else 512
        self.min_ops = 0 if small else 1100   # the report's block p99 needs 1000 points
        self.warmup = 16 if small else 64
        self.points = []
        self.labels = []

    def setup(self, seed: int):
        self.points, self.labels = generate(seed, self.pool_size)
        for i in range(self.warmup):
            self.check(i, self.op(i))

    def describe(self, i):
        return "point", 1

    @staticmethod
    def reference():
        """Run a fixed task of the workload's kind, interpreted Python
        around 4x4 numpy arrays, that calls no projcox code; return its
        time in ns."""
        start = time.perf_counter_ns()
        a = _REFERENCE_MATRIX
        for k in range(40):
            a = a @ (np.eye(4) - 0.1 * np.outer(a[k % 4], a[(k + 1) % 4]))
            a = a / float(np.max(np.abs(a)))
        sum(i * j for i in range(16) for j in range(16))
        return time.perf_counter_ns() - start

    def op(self, i):
        kind, chart, orders, coords, extra, conj = self.points[i % self.pool_size]
        o = orbifold.QuadPrismOrders(*orders)
        point = None
        if kind == MUTATED:
            vmat = charts.build_general(charts.GeneralChartParams(o, *coords)).vectors.T.copy()
            if extra[0] == "flip":
                vmat[extra[1], extra[2]] = -vmat[extra[1], extra[2]]
            else:
                vmat[0, 2] = -3.9
            system = ReflectionSystem(np.eye(4), vmat.T)
        elif chart == GENERAL:
            system = charts.build_general(charts.GeneralChartParams(o, *coords))
        elif chart == CONCURRENT:
            system = charts.build_concurrent(charts.ConcurrentChartParams(o, *coords, extra))
        else:
            point = charts.build_standard(o, *coords)
            # split a4*v44 evenly between alpha_4 and v_4, as acceptance criterion 1 does
            a4 = max(math.sqrt(abs(point.a4_v44)), 1e-6)
            system = charts.realize_representation(point, a4=a4)

        vinberg = cartan.check_vinberg(system, o).passed
        relations = certify.verify_relations(system, o).passed
        try:
            m = cartan.cartan_of(system)
        except ProjCoxError as exc:
            return (vinberg, relations, type(exc).__name__) + (None,) * 5
        cocompact = certify.is_convex_cocompact(m, o)
        if kind == MUTATED:
            return (vinberg, relations, None, cocompact) + (None,) * 4
        identities = cartan.derived_invariant_identities(cartan.cyclic_invariants(m), o).passed
        d = np.asarray(conj)
        equivalent = cartan.projectively_equivalent(m, m * np.outer(d, 1.0 / d))
        case = semisimple = None
        if point is not None:
            case = charts.classify_case(a4, point.a4_v44 / a4).value
            semisimple = charts.is_semisimple(system)
        return (vinberg, relations, None, cocompact, identities, equivalent, case, semisimple)

    def check(self, i, outcome):
        """"ok"; "known:<kind>" when ``verify_relations`` rejects a valid
        point and nothing else disagrees (the known false failure); else
        a description of the disagreement."""
        label = self.labels[i % self.pool_size]
        kind = self.points[i % self.pool_size][0]
        if isinstance(outcome, BaseException):
            return f"point {i} ({kind}): raised {type(outcome).__name__}: {outcome}"
        if outcome == label:
            return "ok"
        wrong = [k for k in range(len(FIELDS)) if outcome[k] != label[k]]
        if wrong == [RELATIONS] and label[RELATIONS]:
            return f"known:{kind}"
        return (f"point {i} ({kind}): "
                + ", ".join(f"{FIELDS[k]} {outcome[k]!r} != {label[k]!r}" for k in wrong))


def generate(seed: int, n: int):
    """Points and their labels, as plain Python values."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice([NORMAL, MUTATED, LARGE, ON_T4], size=n, p=[23 / 32, 4 / 32, 4 / 32, 1 / 32])
    chart_ids = rng.integers(0, 3, n)
    small = rng.choice(SMALL_ORDERS, (n, 4))
    large = rng.choice(LARGE_ORDERS, (n, 4))
    t = 4.0 + np.exp(rng.uniform(-2.0, 2.0, (n, 2)))
    v = -np.exp(rng.uniform(-1.0, 1.0, (n, 4)))
    v44 = rng.standard_normal(n)
    flip = rng.integers(0, 2, n)
    flip_i = rng.integers(0, 4, n)
    flip_j = (flip_i + rng.integers(1, 4, n)) % 4
    conj = np.exp(rng.uniform(-1.0, 1.0, (n, 4)))
    # plain Python values, converted in bulk: generation is part of set-up
    kinds, chart_ids, small, large, t, v, v44, flip, flip_i, flip_j, conj = (
        a.tolist() for a in (kinds, chart_ids, small, large, t, v, v44, flip, flip_i, flip_j, conj))

    points, labels = [], []
    for k in range(n):
        kind = kinds[k]
        chart = (GENERAL, CONCURRENT, STANDARD)[chart_ids[k]] if kind in (NORMAL, LARGE) else GENERAL
        orders = tuple(large[k] if kind == LARGE else small[k])
        t13, t24 = t[k]
        if kind == ON_T4:
            t13 = 4.0
        extra = None
        if chart == CONCURRENT:
            coords = tuple(v[k])
            extra = v44[k]
        else:
            coords = (t13, t24, *v[k][:3])
        if kind == MUTATED:
            extra = ("flip", flip_i[k], flip_j[k]) if flip[k] else ("t13",)
        points.append((kind, chart, orders, coords, extra, tuple(conj[k])))
        labels.append(_label(kind, chart, extra, t13))
    return points, labels


def _label(kind, chart, extra, t13):
    if kind == MUTATED:
        if extra[0] == "flip":   # a positive off-diagonal entry: cartan_of refuses it
            return (False, False, "InvariantViolation") + (None,) * 5
        return (False, False, None, False) + (None,) * 4
    cocompact = chart == CONCURRENT or t13 > 4.0
    standard = chart == STANDARD
    return (True, True, None, cocompact, True, True,
            "I" if standard else None, True if standard else None)

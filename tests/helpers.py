"""Shared random-point generators, the brute-force reflection
reference and subprocess runner for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from projcox import charts
from projcox.errors import ConditionFailure, NormalizationError, SingularSystem
from projcox.orbifold import QuadPrismOrders

ORDER_CHOICES = (3, 4, 5, 6)


def sample_negative_spread(rng: np.random.Generator, spread: float) -> float:
    """Negative coordinate with |v| log-uniform in [e^-spread, e^spread]."""
    return float(-np.exp(rng.uniform(-spread, spread)))


def sample_t_spread(rng: np.random.Generator, spread: float) -> float:
    return float(4.0 + np.exp(rng.uniform(-spread, spread)))


def random_orders(rng: np.random.Generator) -> QuadPrismOrders:
    picks = rng.choice(ORDER_CHOICES, size=4)
    return QuadPrismOrders(*(int(n) for n in picks))


def random_general(rng: np.random.Generator, orders: QuadPrismOrders = None,
                   spread: float = 2.0) -> charts.GeneralChartParams:
    if orders is None:
        orders = random_orders(rng)
    return charts.GeneralChartParams(
        orders,
        sample_t_spread(rng, min(spread + 1.0, 3.0)),
        sample_t_spread(rng, min(spread + 1.0, 3.0)),
        sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread))


def random_concurrent(rng: np.random.Generator, orders: QuadPrismOrders = None,
                      v44: float = 0.0,
                      spread: float = 2.0) -> charts.ConcurrentChartParams:
    if orders is None:
        orders = random_orders(rng)
    return charts.ConcurrentChartParams(
        orders,
        sample_negative_spread(rng, spread), sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread), sample_negative_spread(rng, spread),
        v44)


def random_standard(rng: np.random.Generator, orders: QuadPrismOrders = None,
                    spread: float = 2.0) -> charts.StandardChartPoint:
    """A valid standard-chart point; resamples past singular systems."""
    while True:
        o = orders if orders is not None else random_orders(rng)
        try:
            return charts.build_standard(
                o,
                sample_t_spread(rng, min(spread + 1.0, 3.0)),
                sample_t_spread(rng, min(spread + 1.0, 3.0)),
                sample_negative_spread(rng, spread),
                sample_negative_spread(rng, spread),
                sample_negative_spread(rng, spread))
        except (SingularSystem, ConditionFailure):
            continue


def balanced_realization(pt: charts.StandardChartPoint):
    """Representative with a4 = sqrt(|a4*v44|), splitting the product
    evenly between alpha_4 and v_4 to keep matrix entries moderate."""
    a4 = max(np.sqrt(abs(pt.a4_v44)), 1e-6)
    return charts.realize_representation(pt, a4=a4)


def reflection(a, v) -> np.ndarray:
    """The projective reflection Id - v a^T fixing ker(a), with a(v) = 2."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    p = float(a @ v)
    if abs(p - 2.0) > 1e-9:
        raise NormalizationError(f"a(v) = {p}, expected 2")
    return np.eye(a.shape[0]) - np.outer(v, a)


def mat_power(m, k: int) -> np.ndarray:
    """m**k for integer k >= 1, by repeated squaring."""
    m = np.asarray(m, dtype=float)
    if k < 1:
        raise ValueError("exponent must be >= 1")
    result = np.eye(m.shape[0])
    base = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


ROOT = Path(__file__).resolve().parent.parent


def run_python(args):
    """Run a fresh interpreter with the package source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + list(args), cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)

"""The ``scan`` workload: the batch scans of acceptance criteria 5 and 6,
each call checked against its acceptance band.

One round runs, in order: ``standard_scan`` at (6, 6) with box
(-10, -1e-8) and at (16, 16), each at 1e6 samples, then the same two at
1e5 samples, four times over, ``det_locus_check`` at 2e5 samples per
slice and ``concurrent_t_scan`` at 17 points per axis.  A 1e5 scan's
arrays fit in the last-level cache and a 1e6 scan's do not; the 1e5
pair repeats so that a run times about fifty of them.  Every round
repeats the same calls, with sample seeds drawn from the benchmark seed.
"""

from __future__ import annotations

import time

import numpy as np

from projcox import certify, orbifold

#: Largest sample minimum of a4*v44 at T13 = T24 = 16 that still passes,
#: by sample count.  The infimum is 0; the thresholds leave about 14
#: (1e6) and 56 (1e5) samples below them on average, so a correct
#: program misses them with probability below 1e-6.
T16_BAND = {1_000_000: 1e-2, 100_000: 1e-1}

#: standard_scan calls per round: two at the large size, four pairs at the small
SCANS = 10

#: time of one reference task on the machine the benchmark was tuned on
REFERENCE_NOMINAL_NS = 42_000_000


class ScanLoad:
    throughput_kinds = tail_kinds = ("scan_large",)
    latency_kinds = ("scan_small",)
    round_size = 12
    min_ops = 12   # at least one call of each kind
    reference_every_s = 0.5
    reference_nominal_ns = REFERENCE_NOMINAL_NS

    def __init__(self, small: bool = False):
        large, small_n = (100_000, 100_000) if small else (1_000_000, 100_000)
        self.det_samples = 10_000 if small else 200_000
        self.grid = 5 if small else 17
        self.sizes = (large, large) + (small_n, small_n) * 4
        self.orders = None
        self.seeds = ()
        self.reference_arrays = ()

    def setup(self, seed: int):
        self.orders = orbifold.QuadPrismOrders(3, 3, 3, 3)
        self.seeds = tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(5))
        rng = np.random.default_rng(0)
        self.reference_arrays = (rng.uniform(size=1 << 20), rng.uniform(size=(1 << 16, 4, 4)),
                                 rng.uniform(size=(1 << 13, 4, 4)))
        # warm the code paths on small inputs
        certify.standard_scan(self.orders, 6.0, 6.0, 1000, 0, box=(-10.0, -1e-8))
        certify.det_locus_check(self.orders, 1000, 0)
        certify.concurrent_t_scan(self.orders, 3)

    def reference(self):
        """Run a fixed task of the workload's kind, numpy over arrays
        larger than the last-level cache and over arrays that fit in it,
        that calls no projcox code; return its time in ns."""
        x, large, small = self.reference_arrays
        start = time.perf_counter_ns()
        np.sqrt(x * x + 1.0)
        np.linalg.det(large)
        for _ in range(8):
            np.linalg.det(small)
        return time.perf_counter_ns() - start

    def describe(self, i):
        k = i % self.round_size
        if k < SCANS:
            return ("scan_large" if k < 2 else "scan_small"), self.sizes[k]
        if k == SCANS:
            return "det_locus", 2 * self.det_samples
        return "grid", self.grid ** 4

    def op(self, i):
        k = i % self.round_size
        if k < SCANS:
            t = 6.0 if k % 2 == 0 else 16.0
            box = (-10.0, -1e-8) if t == 6.0 else (-10.0, -0.01)
            seed = self.seeds[min(k, 2 + k % 2)]
            return certify.standard_scan(self.orders, t, t, self.sizes[k], seed, box=box)
        if k == SCANS:
            return certify.det_locus_check(self.orders, self.det_samples, self.seeds[4])
        return certify.concurrent_t_scan(self.orders, self.grid)

    def check(self, i, outcome):
        k = i % self.round_size
        if isinstance(outcome, BaseException):
            return f"call {k}: raised {type(outcome).__name__}: {outcome}"
        if k < SCANS:
            low = outcome.min_a4_v44
            if k % 2 == 0:
                ok = 1.8 <= low <= 2.1
                band = "[1.8, 2.1]"
            else:
                limit = T16_BAND[self.sizes[k]]
                ok = low < limit
                band = f"< {limit}"
            return "ok" if ok else f"call {k}: min a4*v44 {low!r} outside {band} at T={outcome.t13}"
        if k == SCANS:
            worst = min(outcome.min_abs_det.values())
            return "ok" if worst > 1e-6 else f"det locus: min |det| {worst!r} <= 1e-6"
        ok = (outcome.min_product >= 256.0 - 1e-6
              and abs(outcome.product_at_all_minus_one - 256.0) <= 1e-9)
        return "ok" if ok else (f"grid: min {outcome.min_product!r}, at all -1 "
                                f"{outcome.product_at_all_minus_one!r}")

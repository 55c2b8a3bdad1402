"""Fixed-size layer probes, each the best of a few timed repetitions, run in
a fresh interpreter of their own.  Prints one JSON object of probe metrics.

Usage: PYTHONPATH=src python3 perfbench/probes.py
"""

import json
import random
import time
from fractions import Fraction as F

from rankin import (CongSubgroup, CosetMatrix, CyclotomicField, EisensteinSpec,
                    coset_reps, eisenstein_qexp, siegel_unit_qexp)
from rankin.cyclo import CycloElt
from rankin.otsuki import bareiss_solve
from rankin.poly import PolyRing


def best(fn, repeats):
    """Shortest of ``repeats`` timed calls of fn, in seconds."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def cyclo_mul_us(L, rng, n=1000):
    """Microseconds per product of two dense elements of Q(zeta_L) with
    integer coefficients (the series workloads multiply integral elements)."""
    K = CyclotomicField(L)
    xs = [CycloElt(K, tuple(rng.randrange(-99, 100) for _ in range(K.phi)))
          for _ in range(2 * n)]
    pairs = list(zip(xs[::2], xs[1::2]))

    def run():
        for a, b in pairs:
            a * b
    return best(run, 5) / n * 1e6


def main():
    rng = random.Random(0)
    out = {"probe.cyclo_mul_us.phi4": cyclo_mul_us(12, rng),
           "probe.cyclo_mul_us.phi16": cyclo_mul_us(60, rng)}

    # the product the dlog check makes, F * g, at precision 200 over Q(zeta_12)
    g = siegel_unit_qexp(F(1, 12), None, 200)
    f = eisenstein_qexp(EisensteinSpec("F", 2, F(1, 12)), 200)
    out["probe.qseries_mul_ms.prec200"] = best(lambda: f * g, 2) * 1e3
    out["probe.qseries_inverse_ms.prec200"] = best(g.inverse, 2) * 1e3

    out["probe.sl2_enum_ms.M45"] = best(lambda: CongSubgroup.sl2(45), 3) * 1e3
    gamma = CongSubgroup.gamma1(5)
    out["probe.coset_reps_ms.g1_5_diag9"] = best(
        lambda: coset_reps(gamma, CosetMatrix((9, 0, 0, 1))), 3) * 1e3

    ring = PolyRing(("x",))
    mat = [[ring.const(rng.randrange(-9, 10)) for _ in range(16)] for _ in range(16)]
    rhs = [ring.const(rng.randrange(-9, 10)) for _ in range(16)]
    out["probe.linsolve_ms.n16"] = best(lambda: bareiss_solve(mat, rhs), 3) * 1e3
    print(json.dumps(out))


if __name__ == "__main__":
    main()

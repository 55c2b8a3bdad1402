"""The four benchmark workloads, each a fixed list of catalog check instances.

A check instance is (instance id, catalog entry id, thunk); the thunk calls
one public rankin function and returns (status, witness).  The set of
instances never depends on the seed, so every pass does the same work; the
seed only feeds the catalog's spot-evaluation seed and the order of checks.
"""

from __future__ import annotations

import contextlib
import random
import time
from fractions import Fraction as F

import hostspeed

# Precisions: dlog runs at the CLI default (100); dist-relations runs at the
# size of acceptance criterion 7 (60), because at 100 one pass takes ~21 s.
DLOG_PREC = 100
DIST_PREC = 60

# The configuration `rankin verify-norm-relations` builds from its defaults.
CLI_DEFAULTS = {"prec": 100, "data": None, "guard": 8}

# Catalog entries that have a workload of their own: dlog, dist and hecke.
OWN_WORKLOAD = {"dlog", "dist-relations", "hecke-square"}

WORKLOADS = ("dlog", "dist", "hecke", "symbolic")


def _status(ok):
    return "PASS" if ok else "FAIL"


def _dlog():
    from rankin import dlog_matches_weight_two
    out = []
    for N in (3, 4, 5, 12):
        for a in range(1, N):
            def thunk(a=a, N=N):
                ok, witness = dlog_matches_weight_two(F(a, N), DLOG_PREC)
                return _status(ok), witness
            out.append((f"dlog {a}/{N}", "dlog", thunk))
    return out


def _dist():
    from rankin import distribution_check
    out = []
    for (m, N, c) in ((2, 5, 7), (3, 4, 7), (2, 3, 5)):
        for name, M in (("dist1", ((m, 0), (0, 1))), ("dist2", ((1, 0), (0, m))),
                        ("dist3", ((m, 0), (0, m)))):
            def thunk(N=N, M=M, c=c):
                ok, witness = distribution_check(0, F(1, N), M, c, DIST_PREC)
                return _status(ok), witness
            out.append((f"{name} m={m} N={N} c={c}", "dist-relations", thunk))
    return out


def _hecke():
    from rankin import t_prime_square_identity
    out = []
    for (N, p) in ((5, 2), (5, 3), (7, 2)):
        def thunk(N=N, p=p):
            report = t_prime_square_identity(N, p)
            return _status(report["holds"]), report
        out.append((f"hecke N={N} p={p}", "hecke-square", thunk))
    return out


def _symbolic(seed):
    from rankin import CATALOG, run_catalog
    cfg = dict(CLI_DEFAULTS, seed=seed)
    out = []
    for ident, _, _ in CATALOG:
        if ident in OWN_WORKLOAD:
            continue

        def thunk(ident=ident):
            (entry,) = run_catalog([ident], cfg)["entries"]
            return entry["status"], entry["witness"]
        out.append((ident, ident, thunk))
    return out


def checks(workload, seed):
    """The check instances of ``workload``, in catalog order."""
    if workload == "symbolic":
        return _symbolic(seed)
    return {"dlog": _dlog, "dist": _dist, "hecke": _hecke}[workload]()


def pass_order(instances, seed):
    """The instances shuffled reproducibly from the seed."""
    order = list(instances)
    random.Random(seed).shuffle(order)
    return order


def spot_point(seed):
    """The point at which the sp-rewrite entry evaluates, drawn from the seed
    independently of rankin, in the order and ranges of the catalog's spot
    evaluation; the reference check then shows the seed reached the catalog."""
    rng = random.Random(seed)
    draws = [("a", -9, 9), ("b", -9, 9), ("df", 1, 9), ("dg", 1, 9),
             ("s", 1, 9), ("p", 2, 11)]
    return {name: str(F(rng.randrange(lo, hi))) for name, lo, hi in draws}


def run_pass(workload, seed, trace=None):
    """Run every check of ``workload`` once, in the order drawn from the seed.

    Returns (records, verdict_s, scaled_s): records maps instance id to
    {"status", "witness"}; verdict_s is the wall time of the checks, from the
    first check to the last verdict, less the host-speed samples taken
    meanwhile; scaled_s is that time with each check scaled to the reference
    host speed by the samples taken just before, during and just after it.
    With ``trace`` given, each check runs inside a span named after its
    catalog entry.
    """
    order = pass_order(checks(workload, seed), seed)
    records = {}
    verdict_s = scaled_s = 0.0
    sampler = hostspeed.Sampler()
    sampler.sample()
    sampler.start()
    try:
        for ident, entry, thunk in order:
            first, spent = len(sampler.times) - 1, sampler.spent
            t = time.perf_counter()
            with trace.span(f"catalog.{entry}") if trace else contextlib.nullcontext():
                try:
                    status, witness = thunk()
                except Exception as exc:  # a crash is a failed check, not a crashed pass
                    status, witness = "FAIL", f"{type(exc).__name__}: {exc}"
            t = time.perf_counter() - t - (sampler.spent - spent)
            records[ident] = {"status": status, "witness": witness}
            sampler.sample()
            verdict_s += t
            scaled_s += hostspeed.scale(t, sampler.times[first:])
    finally:
        sampler.stop()
    return records, verdict_s, scaled_s

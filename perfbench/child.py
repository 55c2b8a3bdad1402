"""One benchmark pass, in the fresh interpreter that run.py starts for it.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE
with WORKLOAD one of the workloads or "setup" (set up, then stop), and
TRACE 0 or 1.  PYTHONPATH must reach src/.  Prints one JSON object.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

WORKLOAD, SEED, TRACE = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"

import rankin  # noqa: E402

if TRACE:
    import tracer
    TRACER = tracer.Tracer()
    TRACER.install()
else:
    TRACER = None
rankin.load_bundled("f11.eigenform")
rankin.load_bundled("g26.eigenform")
SETUP_S = time.perf_counter() - T0

import json  # noqa: E402
import resource  # noqa: E402

import grading  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def main():
    # the host speed just after set-up scales the set-up time
    sampler = hostspeed.Sampler()
    for _ in range(3):
        sampler.sample()
    out = {"setup_s": SETUP_S, "setup_scaled_s": hostspeed.scale(SETUP_S, sampler.times)}
    if WORKLOAD != "setup":
        records, verdict_s, scaled_s = workloads.run_pass(WORKLOAD, SEED, TRACER)
        failed = grading.failures(WORKLOAD, SEED, records)
        out.update(verdict_s=verdict_s, scaled_s=scaled_s, attempted=len(records),
                   failed=failed)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if TRACER is not None:
        TRACER.uninstall()
        out["counters"] = TRACER.counters()
        out["layers"] = tracer.layer_times(TRACER.spans)
        out["spans"] = TRACER.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()

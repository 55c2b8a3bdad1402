"""The correctness gate: every check instance must PASS, and the
deterministic part of its report (status and witness, no timings) must be
byte-identical to the reference stored under reference/."""

from __future__ import annotations

import copy
import json
import os

import workloads

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def canonical(record):
    """The byte string two reports must share; tuples and lists coincide,
    objects JSON lacks are written with str()."""
    return json.dumps(record, sort_keys=True, default=str)


def reference(workload, seed):
    """The expected records of ``workload`` for ``seed``."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if "sp-rewrite" in ref:
        ref = copy.deepcopy(ref)
        ref["sp-rewrite"]["witness"]["spot"]["point"] = workloads.spot_point(seed)
    return ref


def failures(workload, seed, records):
    """Sorted ids of the instances that failed or disagree with the
    reference, including reference instances that did not run."""
    ref = reference(workload, seed)
    bad = {ident for ident, rec in records.items()
           if rec["status"] != "PASS" or ident not in ref
           or canonical(rec) != canonical(ref[ident])}
    return sorted(bad | (set(ref) - set(records)))

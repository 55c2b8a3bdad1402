"""Write reference/<workload>.json from one pass of each workload at seed 0.

Run from the repository root: PYTHONPATH=src python3 perfbench/make_reference.py
A reference records what the program answers today; regenerate it only when
a change to the program's reports is intended, and review the diff.
"""

import json
import os
import sys

import grading
import workloads


def main():
    for workload in workloads.WORKLOADS:
        records, _, _ = workloads.run_pass(workload, 0)
        failing = sorted(i for i, r in records.items() if r["status"] != "PASS")
        if failing:
            sys.exit(f"{workload}: not every check passes: {failing}")
        path = os.path.join(grading.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(json.loads(grading.canonical(records)),
                                indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

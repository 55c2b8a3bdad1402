"""List the functions of src/rankin that no command, q-expansion or demo enters.

In this one process, under a sys.setprofile hook, runs every subcommand of
the rankin CLI (`qexp` once for each of the families E, F and Etilde) and
every script in demos/, then prints each function defined in
src/rankin/*.py whose code was never entered, one per line as

    - rankin.module.Qualified.name  file.py:line  (n lines)

followed by a count on standard error.  A function that only a FAIL path,
an error path or a test reaches is listed too: what is listed is a
candidate for removal, not proof that it is dead.

    python3 tools/unreached.py                 # every run
    python3 tools/unreached.py qexp demo-02    # only the runs named so
    python3 tools/unreached.py --all qexp      # every function, + if entered

A run is named by its name in RUNS or by the part before a '-' of it, so
`qexp` selects the three qexp runs.  Exit status 1 when a run does not
exit 0 (its functions would not be the ones meant), 2 on an unknown name.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import inspect
import io
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "rankin")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _data(name):
    return os.path.join(SRC, "data", name)


RUNS = {
    "verify-norm-relations": ["verify-norm-relations", "--all"],
    "qexp-E": ["qexp", "--family", "E", "--k", "2", "--alpha", "1/5"],
    "qexp-F": ["qexp", "--family", "F", "--k", "2", "--alpha", "1/5"],
    "qexp-Etilde": ["qexp", "--family", "Etilde", "--k", "2", "--alpha", "1/5"],
    "dist-check": ["dist-check", "--m", "2", "--N", "5", "--c", "7"],
    "hecke-check": ["hecke-check", "--level", "5", "--prime", "2"],
    "euler-factor": ["euler-factor", "--f", _data("f11.eigenform"),
                     "--g", _data("g26.eigenform"), "--prime", "17"],
    "example-7-5": ["example-7-5"],
    "otsuki-check": ["otsuki-check"],
}
RUNS.update({"demo-" + os.path.basename(path)[:2]: path for path in DEMOS})


def functions():
    """{(file, first line): (name, lines)} for every function and method
    defined in src/rankin/*.py; comprehensions, lambdas and class bodies are
    left out."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = "rankin." + os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                last = max(line for _, _, line in code.co_lines() if line)
                out[path, code.co_firstlineno] = (f"{module}.{code.co_qualname}",
                                                  last - code.co_firstlineno + 1)
    return out


def run(names):
    """Run the RUNS named, under the hook; returns the (file, first line) of
    every code object entered and the names of the runs that did not exit 0."""
    sys.path.insert(0, os.path.dirname(SRC))
    from rankin.cli import main as cli
    entered, failed = set(), []

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for name in names:
        target = RUNS[name]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(hook)
            try:
                if isinstance(target, list):
                    code = cli(target)
                else:
                    runpy.run_path(target, run_name="__main__")
                    code = 0
            except SystemExit as exc:
                code = exc.code
            finally:
                sys.setprofile(None)
        if code:
            failed.append(name)
    return {(os.path.realpath(f), line) for f, line in entered}, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="*", help="names of runs (default: all)")
    ap.add_argument("--all", action="store_true",
                    help="list every function, + if entered and - if not")
    args = ap.parse_args(argv)
    names = [n for n in RUNS if not args.runs
             or any(n == r or n.split("-")[0] == r for r in args.runs)]
    unknown = [r for r in args.runs if not any(n == r or n.split("-")[0] == r for n in RUNS)]
    if unknown:
        print(f"unknown run {unknown[0]!r}; runs: {', '.join(RUNS)}", file=sys.stderr)
        return 2
    table = functions()
    entered, failed = run(names)
    never = 0
    for (path, line), (name, lines) in sorted(table.items()):
        reached = (os.path.realpath(path), line) in entered
        never += not reached
        if args.all or not reached:
            print(f"{'+' if reached else '-'} {name}  {os.path.basename(path)}:{line}"
                  f"  ({lines} lines)")
    print(f"{never} of {len(table)} functions in src/rankin never entered by: "
          f"{', '.join(names)}", file=sys.stderr)
    for name in failed:
        print(f"run {name} did not exit 0", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

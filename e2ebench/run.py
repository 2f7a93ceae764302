#!/usr/bin/env python3
"""End-to-end verification benchmark: build it, run one workload.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a checkout of the repository.  The benchmark
program (e2ebench/e2e.ml) is built from source with dune, then computes
any reference answers it has not yet memoized under .e2ebench_work/ (the
first run in a checkout takes a few minutes for this).  Its last line of
standard output is the JSON result, which this script relays as its own
last line.  --self-test runs every workload of BENCHMARK.json briefly,
traced and untraced, and checks that each metric it lists is printed
with its unit and that no request failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

# the first run in a checkout builds and computes the reference answers
BUILD_TIMEOUT_S = 280
PREPARE_TIMEOUT_S = 440
RUN_TIMEOUT_S = 170
PROGRAM = os.path.join("_build", "default", "e2ebench", "e2e.exe")
CLI = os.path.join("_build", "default", "bin", "main.exe")
# the program under test: without it there is nothing to build or run
REQUIRED = ["dune-project", "lib", "bin", "examples", os.path.join("e2ebench", "dune")]


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_bounded(argv, timeout, **kw):
    """Run argv in its own process group; on timeout, or if this script is
    stopped, kill the whole group and wait for it."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (argv[0], timeout))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out


def build():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not at the root of a jahob checkout (missing %s)" % ", ".join(missing))
    # the dune cache lives outside the checkout: keep every build artefact in _build
    code, _ = run_bounded(
        ["dune", "build", "--root", ".", "--cache=disabled", "./e2ebench/e2e.exe", "./bin/main.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed")


def prepare():
    """Compute the reference answers every run checks against, once per build."""
    code, _ = run_bounded([PROGRAM, "--prepare", "--cli", CLI], PREPARE_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("computing the reference answers failed")


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout lines, parsed result or None)."""
    argv = [PROGRAM, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--cli", CLI]
    code, out = run_bounded(argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, lines, result


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run_workload(w["name"], 1, 1, trace)
            label = "%s --trace %d" % (w["name"], trace)
            before = len(problems)
            if result is None:
                problems.append("%s: exit %d, no result" % (label, code))
                continue
            got = result["metrics"]
            for metric in spec[key]:
                entry = got.get(metric["name"])
                if entry is None:
                    problems.append("%s: %s not printed" % (label, metric["name"]))
                elif entry.get("unit") != metric["unit"]:
                    problems.append("%s: %s has unit %r, not %r"
                                    % (label, metric["name"], entry.get("unit"), metric["unit"]))
                elif not any(l.split()[:1] == [metric["name"]] and l.split()[-1] == metric["unit"]
                             for l in lines):
                    problems.append("%s: %s missing from the readable report" % (label, metric["name"]))
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (label, sorted(extra)))
            error_lines = [l for l in lines if l.startswith("error_ratio:")]
            if result["failed"] != 0 or not result["correct"] or \
                    error_lines != ["error_ratio: 0/%d requests" % result["attempted"]]:
                problems.append("%s: error_ratio is not 0: %s" % (label, error_lines))
                problems.extend("%s: %s" % (label, l) for l in lines if l.startswith("FAILED"))
            print("%-28s %s" % (label, "ok" if len(problems) == before else "FAILED"), file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # turn a termination request into an exit, so child processes are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    prepare()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        fail("--workload is required")
    code, lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines[:-1]:
        print(line)
    if result is None:
        fail("e2e.exe exited with code %d and no result" % code)
    print(json.dumps(result))
    sys.exit(0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the repository root.

    python3 perfbench/check.py spread [--runs 10] [--workload W ...]
        N seeds per workload, untraced: median and quartile spread
        (IQR / median, as statistics.quantiles(n=4) gives them) of every
        end-to-end metric, against a third of its bound.
    python3 perfbench/check.py repeat
        Two traced runs and two untraced runs of one seed per workload:
        the input digest and every count metric must repeat exactly.
    python3 perfbench/check.py selftest
        Each workload with one expected value corrupted must report
        failures (error rate > 0) and correct = false.
    python3 perfbench/check.py bare
        The command in a directory holding only BENCHMARK.json and the
        benchmark's paths must fail without printing a result.
    python3 perfbench/check.py all
        repeat, selftest and bare.

The benchmark command comes from BENCHMARK.json; CARGO_TARGET_DIR is
passed through, so one build serves every run.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "cells", "bytes"}


def run(workload, seed, trace=0, extra=(), cwd=None, seconds=None):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds or SPEC["run_seconds"]), "--trace", str(trace),
    ] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    digest = next((l.split("=", 1)[1].strip() for l in lines if l.startswith("inputs_digest")), None)
    return p.returncode, result, digest, p.stderr


def spread(runs, workloads):
    ok = True
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for w in workloads:
        values = {}
        for seed in range(1, runs + 1):
            code, res, _, err = run(w, seed)
            if code != 0 or not res or not res["correct"]:
                print(f"{w} seed {seed}: bad run (exit {code}) {err[-300:]}")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3
            flag = "ok" if rel <= limit or name == "setup_s" else "WIDE"
            ok &= flag == "ok"
            print(f"{w:<13} {name:<18} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {rel:7.4f}  (bound/3 {limit:.4f}) {flag}")
    return ok


def repeat():
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            a = run(w, 7, trace)
            b = run(w, 7, trace)
            if a[0] or b[0] or not a[1] or not b[1]:
                print(f"{w} trace {trace}: run failed")
                ok = False
                continue
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
            counts = [n for n in a[1]["metrics"] if units.get(n) in COUNT_UNITS]
            diff = [n for n in counts if a[1]["metrics"][n]["value"] != b[1]["metrics"][n]["value"]]
            same = a[2] == b[2] and a[2] is not None
            print(f"{w} trace {trace}: digest {'repeats' if same else 'DIFFERS'}, "
                  f"{len(counts) - len(diff)}/{len(counts)} count metrics repeat {diff or ''}")
            ok &= same and not diff
    return ok


def selftest():
    ok = True
    for w in WORKLOADS:
        code, res, _, _ = run(w, 3, extra=["--selftest"], seconds=2)
        good = code == 0 and res and res["failed"] > 0 and not res["correct"]
        print(f"{w} selftest: {'caught' if good else 'NOT CAUGHT'} "
              f"({res and res['failed']} failed / {res and res['attempted']} attempted)")
        ok &= bool(good)
    return ok


def bare():
    with tempfile.TemporaryDirectory() as d:
        shutil.copy("BENCHMARK.json", d)
        for p in SPEC["paths"]:
            shutil.copytree(p, os.path.join(d, p), ignore=shutil.ignore_patterns("target"))
        code, res, _, _ = run(WORKLOADS[0], 1, cwd=d)
    good = code != 0 and res is None
    print(f"bare directory: exit {code}, result {'none' if res is None else 'PRINTED'}")
    return good


def main():
    args = sys.argv[1:]
    what = args[0] if args else "all"
    runs = int(args[args.index("--runs") + 1]) if "--runs" in args else 10
    chosen = [args[i + 1] for i, a in enumerate(args) if a == "--workload"] or WORKLOADS
    if what == "spread":
        ok = spread(runs, chosen)
    elif what == "repeat":
        ok = repeat()
    elif what == "selftest":
        ok = selftest()
    elif what == "bare":
        ok = bare()
    else:
        ok = all([repeat(), selftest(), bare()])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

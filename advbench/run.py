#!/usr/bin/env python3
"""End-to-end benchmark of advirt.

Run one workload (builds the benchmark from source on first use):

    python3 advbench/run.py --workload ipars-rows --seed 1 --seconds 10 --trace 0

Compare two sets of saved results (refused when the host fingerprints
differ):

    python3 advbench/run.py compare BASE_DIR NEW_DIR

Self-test of the benchmark (every metric printed with its unit, zero
errors, and a corrupted reference fails the run):

    python3 advbench/run.py smoke

Everything the benchmark writes stays under .advbench/ at the repository
root: the build, the generated dataset (removed after each run), saved
results and span files.  See advbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".advbench")
BUILD = os.path.join(STATE, "build")
RESULTS = os.path.join(STATE, "results")
EXE = os.path.join(BUILD, "advbench")
WORKLOADS = ["ipars-rows", "ipars-aggregate", "served-mix", "dist-mix"]
# Fields of the fingerprint that identify the host and build; results that
# differ in any of them are not comparable.  The commit is recorded too,
# but comparing two commits is the point of a comparison.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SMOKE_SEED = 7
SMOKE_SECONDS = 1


def fail(msg, code=2):
    print("advbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark and the library it links."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    os.makedirs(STATE, exist_ok=True)
    log_path = os.path.join(STATE, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "advbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "advbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "source-" + source_digest()


def fingerprint(report):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "commit": commit(),
    }


def metric_names(mode):
    """(name, unit) of the metrics BENCHMARK.json lists for a mode."""
    s = spec()
    if s is None:
        return None
    key = "per_layer" if mode == "per_layer" else "end_to_end"
    return [(m["name"], m["unit"]) for m in s[key]]


def run_workload(args):
    build()
    workdir = os.path.join(STATE, "run-%d" % os.getpid())
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report_path = os.path.join(workdir, "report.json")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--report", report_path]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS, tag + ".spans.jsonl")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # The engine's environment knobs stay at their defaults, so every run
    # measures the same configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADV_")}
    try:
        os.makedirs(workdir, exist_ok=True)
        try:
            rc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
        if rc != 0 or not os.path.isfile(report_path):
            fail("benchmark program exited with %d" % rc, 1)
        with open(report_path) as f:
            report = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["fingerprint"] = fingerprint(report)
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    mode = "per_layer" if args.trace else "end_to_end"
    print("workload %s  seed %d  seconds %s  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("host %s" % json.dumps(report["fingerprint"], sort_keys=True))
    print("samples %d  attempted %d  failed %d (threw %d, wrong %d)  "
          "distinct queries %d of pool %d  hot share %.3f" %
          (report["samples"], report["attempted"], report["failed"],
           report["threw"], report["wrong_answers"],
           report["distinct_queries"], report["query_pool"],
           report["hot_share"]))
    for name, c in report["classes"].items():
        print("class %-12s %5d queries  p50 %.3f ms" %
              (name, c["queries"], c["p50_ms"]))
    for section in ("end_to_end", "per_layer"):
        for name, m in report[section].items():
            value = float("nan") if m["value"] is None else m["value"]
            print("%-28s %.6g %s" % (name, value, m["unit"]))
    for e in report["errors"]:
        print("error: " + e)

    wanted = metric_names(mode)
    metrics = report[mode]
    if wanted is not None:
        missing = [n for n, _ in wanted if n not in metrics]
        if missing:
            fail("report lacks metrics %s" % ", ".join(missing), 1)
        metrics = {n: metrics[n] for n, _ in wanted}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


# ---------------------------------------------------------------------------
# compare

def load_results(path):
    files = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "*.json"))))
    out = []
    for p in files:
        with open(p) as f:
            r = json.load(f)
        if "fingerprint" in r and r.get("trace") == 0:
            out.append(r)
    return out


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def compare(args):
    base, new = load_results(args.base), load_results(args.new)
    if not base or not new:
        fail("no untraced results in %s or %s" % (args.base, args.new))
    hosts = {tuple(r["fingerprint"][k] for k in HOST_KEYS)
             for r in base + new}
    if len(hosts) > 1:
        print("refused: results come from different hosts or builds:")
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))))
        return 3
    bounds = {m["name"]: m for m in (spec() or {}).get("end_to_end", [])}
    print("%-16s %-20s %12s %12s %8s %8s  %s" %
          ("workload", "metric", "base", "new", "change", "bound", "verdict"))
    worse = False
    for w in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == w]
        n = [r for r in new if r["workload"] == w]
        if not b or not n:
            continue
        for name, m in b[0]["end_to_end"].items():
            bv = [r["end_to_end"][name]["value"] for r in b]
            nv = [r["end_to_end"][name]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            spec_m = bounds.get(name)
            if spec_m is None:
                verdict, bound = "not gated", float("nan")
            else:
                # Noise wider than the bound decides nothing, unless the
                # two run sets do not overlap at all.
                bound = spec_m["bound"]
                lower = spec_m["better"] == "lower"
                worse_by = change if lower else -change
                spread = max(quartile_spread(bv), quartile_spread(nv))
                apart = max(bv) < min(nv) or max(nv) < min(bv)
                if spread > bound and not apart:
                    verdict = "unresolved (spread %.3f)" % spread
                elif worse_by > bound:
                    verdict, worse = "WORSE", True
                else:
                    verdict = "ok"
            print("%-16s %-20s %12.6g %12.6g %+7.1f%% %8.3f  %s" %
                  (w, name, bm, nm, 100 * change, bound, verdict))
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# smoke

def smoke():
    s = spec()
    if s is None:
        fail("smoke needs BENCHMARK.json at the repository root")
    build()
    problems = []

    def run(workload, trace, corrupt=False):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(SMOKE_SEED), "--seconds",
               str(SMOKE_SECONDS), "--trace", str(trace)]
        if corrupt:
            cmd.append("--corrupt-reference")
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S + 10)
        lines = p.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else None
        return p.returncode, lines, last

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.time()
            rc, lines, last = run(w, trace)
            where = "%s trace %d" % (w, trace)
            if rc != 0 or last is None:
                problems.append("%s: exit %d" % (where, rc))
                continue
            if not last["correct"] or last["failed"] != 0:
                problems.append("%s: not correct" % where)
            for m in s[key]:
                got = last["metrics"].get(m["name"])
                printed = any(l.split()[:1] == [m["name"]] and
                              l.split()[-1] == m["unit"] for l in lines[:-1])
                if got is None or got["unit"] != m["unit"] or not printed:
                    problems.append("%s: %s not printed with unit %s" %
                                    (where, m["name"], m["unit"]))
            if not any(l.split() == ["error_rate", "0", "ratio"]
                       for l in lines):
                problems.append("%s: error_rate is not 0" % where)
            print("smoke %-16s trace %d ok in %.0f s" % (w, trace,
                                                         time.time() - t0))
    # A wrong reference must fail the run: once through the row digest
    # path, once through the pushdown comparison.
    for w in ("ipars-rows", "ipars-aggregate"):
        rc, _, last = run(w, 0, corrupt=True)
        if rc == 0 or last is None or last["correct"]:
            problems.append("%s: a corrupted reference did not fail the run"
                            % w)
        else:
            print("smoke %-16s corrupted reference fails the run" % w)
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    # On SIGTERM unwind normally: subprocess.run kills and reaps the
    # benchmark program, and the run's dataset directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("base", help="results directory or file (before)")
        ap.add_argument("new", help="results directory or file (after)")
        return compare(ap.parse_args(sys.argv[2:]))
    if sys.argv[1:] == ["smoke"]:
        return smoke()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: alter one reference answer")
    return run_workload(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())

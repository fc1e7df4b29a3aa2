#!/usr/bin/env python3
"""Build and run the GUPster benchmark (see README.md).

    python3 perfbench/run.py --workload referral --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. The Go program is built from source into
.bench_build/ (its build cache, temporary files and journals stay there
too). With one workload the last line of standard output is the result
object; with --workload all every workload runs untraced and a table of
all end-to-end metrics, error_rate included, is printed. The exit code is
non-zero when a run fails or any answer is wrong. --extra adds the
unbounded figures (goodput_rps, p50_ms, p99_ms, write_p50_ms,
write_p99_ms, error_rate) to a single run's result; --workload all
always shows them. --out FILE appends each
result, labelled with its workload, seed and mode, to a JSON-lines file
that summarize.py compares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["referral", "chaining_routed", "directory_churn"]
# One run must end within 180 s; the build has its own, longer limit.
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 880


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off")
    return env


def build(env):
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")


def run(env, workload, seed, seconds, trace, extra):
    """Runs one workload; returns (exit code, result object or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", os.path.join(BUILD, "work")]
    if extra:
        cmd.append("--extra")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, None
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    res = None
    if lines:
        try:
            res = json.loads(lines[-1])
        except ValueError:
            res = None
    return proc.returncode, res


def record(path, workload, seed, trace, res):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, "result": res}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append labelled results to this JSON-lines file")
    ap.add_argument("--extra", action="store_true",
                    help="also report the unbounded goodput, latencies and error_rate")
    args = ap.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r" % args.workload)

    env = go_env()
    build(env)
    if args.workload != "all":
        code, res = run(env, args.workload, args.seed, args.seconds, args.trace, args.extra)
        if res is None:
            sys.exit(code or 1)
        if args.out:
            record(args.out, args.workload, args.seed, args.trace, res)
        print(json.dumps(res))
        sys.exit(code)

    ok = True
    for w in WORKLOADS:
        code, res = run(env, w, args.seed, args.seconds, args.trace, args.trace == 0)
        if res is None:
            print("%s: run failed (exit %d)" % (w, code))
            ok = False
            continue
        if args.out:
            record(args.out, w, args.seed, args.trace, res)
        ok = ok and code == 0 and res["correct"]
        print("%s (correct=%s, attempted=%d, failed=%d)" % (w, res["correct"], res["attempted"], res["failed"]))
        for name, m in sorted(res["metrics"].items()):
            print("  %-28s %14.6f %s" % (name, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

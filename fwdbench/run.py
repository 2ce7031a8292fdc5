#!/usr/bin/env python3
"""Forwarding benchmark: builds the iofwd++ libraries and the fwdbench program
inside the checkout, then runs one workload and relays its result.

    python3 fwdbench/run.py --workload ckpt_burst --seed 1 --seconds 20 --trace 0
    python3 fwdbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 fwdbench/run.py --self-test

The last line of standard output is the program's JSON result. Build output
goes to standard error. The exit code is 0 only when every check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ckpt_burst", "small_rw", "restart_read", "sim_ladder"]
RUN_TIMEOUT_S = 170


def sh(cmd):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    """Configure and build the library tree and fwdbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no iofwd++ sources next to %s" % HERE)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    libs = os.path.join(out, "iofwd")
    bench = os.path.join(out, "fwdbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(libs, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", libs, *gen, "-DCMAKE_BUILD_TYPE=Release",
            "-DIOFWD_BUILD_TESTS=OFF", "-DIOFWD_BUILD_BENCH=OFF", "-DIOFWD_BUILD_EXAMPLES=OFF"])
    sh(["cmake", "--build", libs, "-j", jobs])
    # Reconfigured every time: fwdbench links whatever libraries the tree holds.
    bench_gen = [] if os.path.isfile(os.path.join(bench, "CMakeCache.txt")) else gen
    sh(["cmake", "-S", HERE, "-B", bench, *bench_gen, "-DCMAKE_BUILD_TYPE=Release",
        "-DIOFWD_BUILD_DIR=" + libs])
    sh(["cmake", "--build", bench, "-j", jobs])
    return os.path.join(bench, "fwdbench")


def run_one(binary, workload, seed, seconds, trace, inject=None, quiet=False):
    """Runs fwdbench once; returns (exit code, parsed last line or None)."""
    # Relative to the checkout root, where fwdbench runs: socket paths under
    # it must stay within the 108 bytes AF_UNIX allows.
    run_dir = ".bench_run"
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--run-dir", run_dir]
    if trace:
        cmd += ["--trace-out", os.path.join(run_dir, "trace-%s-seed%s.json" % (workload, seed))]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            stderr=subprocess.DEVNULL if quiet else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("fwdbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 4, None
    finally:
        # fwdbench removes its scratch directory itself; this covers a crash.
        scratch = os.path.join(ROOT, run_dir, "%s-%d" % (workload, proc.pid))
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if not quiet:
        sys.stdout.write("\n".join(lines[:-1] if result is not None else lines) + "\n")
    return proc.returncode, result


def self_test(binary):
    """A flipped byte and an erroring op must both count as failures."""
    cases = [("small_rw", "flip"), ("ckpt_burst", "error"), ("restart_read", "flip"),
             ("restart_read", "error"), ("sim_ladder", "flip")]
    ok = True
    for workload, inject in cases:
        code, res = run_one(binary, workload, 1, 1, 0, inject=inject, quiet=True)
        caught = code != 0 and res is not None and res["failed"] >= 1 and not res["correct"]
        print("self-test %-12s --inject %-5s -> exit %d, failed %s: %s"
              % (workload, inject, code, res["failed"] if res else "?",
                 "counted" if caught else "MISSED"))
        ok = ok and caught
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("fwdbench: build failed: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.flush()
    if args.self_test:
        return self_test(binary)
    if args.workload != "all":
        code, res = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        if res is not None:
            print(json.dumps(res))
        return code
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, res = run_one(binary, w, args.seed, args.seconds, args.trace)
        worst = worst or code
        if res is None:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"][w] = res["metrics"]
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())

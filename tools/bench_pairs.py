#!/usr/bin/env python3
"""Paired parent/change benchmark recorder (ROADMAP item 8).

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 --seconds 20 \
        --workload ckpt_burst --seed 900
    python3 tools/bench_pairs.py --aa --parent HEAD~1 --pairs 10 --seconds 20 \
        --workload ckpt_burst --seed 950
    python3 tools/bench_pairs.py --self-test
    python3 tools/bench_pairs.py --check [DIR]

Exports both revisions with `git archive` into .bench_build/pairs/<sha>/
(gitignored, kept between invocations), then runs fwdbench/run.py from each
export in N pairs. Pair i uses seed SEED+i on both sides and alternates which
side runs first, so slow drifts of the host hit both sides alike. Each run's
last stdout line is fwdbench's JSON result.

For every workload it appends one entry to BENCH_<workload>.json at the
repository root: commit, parent, date, host, run length, pairs, and for each
end-to-end and per-layer metric BENCHMARK.json names that the runs report,
both medians, the parent's interquartile range, the change/parent ratio and
the number of pairs the change won, and the spread (lowest, highest) of the
per-pair ratios. Ratios and wins are the claim; absolute numbers are context
for the host.

--aa runs the parent against itself (an A/A calibration) and marks the entry
"aa": true. Its win counts and ratio spreads are what noise alone produces
on this host: a claim counts only if its ratio lies outside the A/A spread
and it wins more pairs than the A/A run did.

--check validates the schema of every BENCH_*.json in DIR (default: the
repository root); --self-test runs the aggregation and the schema check on a
canned fwdbench line.
"""
import argparse
import datetime
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY_KEYS = {"commit": str, "parent": str, "date": str, "host": dict, "workload": str,
              "seconds": (int, float), "pairs": int, "seeds": list, "trace": int,
              "all_correct": bool, "metrics": dict}
HOST_KEYS = {"cpu": str, "nproc": int, "fs": str}
METRIC_KEYS = {"unit": str, "better": str, "parent_median": (int, float),
               "change_median": (int, float), "parent_iqr": list, "ratio": (int, float, type(None)),
               "wins": int, "n": int}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha):
    """An unpacked `git archive` of sha under .bench_build/pairs/; returns its path."""
    dest = os.path.join(ROOT, ".bench_build", "pairs", sha)
    marker = os.path.join(dest, ".exported")
    if not os.path.isfile(marker):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        open(marker, "w").close()
    return dest


def run_side(tree, workload, seed, seconds, trace):
    """One fwdbench run from an exported tree; returns its parsed JSON line or None."""
    cmd = [sys.executable, os.path.join(tree, "fwdbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs = "unknown"
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", ROOT], capture_output=True,
                            text=True).stdout.strip() or fs
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count() or 1, "fs": fs}


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def aggregate(pairs, specs):
    """pairs: [(parent_result, change_result)] -> {metric: stats} over metrics both report."""
    out = {}
    for name, spec in specs.items():
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
               if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not got:
            continue
        par = [p for p, _ in got]
        chg = [c for _, c in got]
        lower = spec.get("better") == "lower"
        wins = sum(1 for p, c in got if (c < p if lower else c > p))
        pm, cm = statistics.median(par), statistics.median(chg)
        ratios = [c / p for p, c in got if p]
        out[name] = {"unit": spec.get("unit", ""), "better": spec.get("better", ""),
                     "parent_median": pm, "change_median": cm, "parent_iqr": quartiles(par),
                     "ratio": (cm / pm) if pm else None, "wins": wins, "n": len(got),
                     "ratio_spread": [min(ratios), max(ratios)] if ratios else None}
    return out


def check_entry(e):
    """Schema errors of one BENCH_*.json entry (empty list = valid)."""
    errs = []
    for key, typ in ENTRY_KEYS.items():
        if not isinstance(e.get(key), typ):
            errs.append("%s: missing or not %s" % (key, typ))
    for key, typ in HOST_KEYS.items():
        if not isinstance(e.get("host", {}).get(key), typ):
            errs.append("host.%s: missing or not %s" % (key, typ))
    for name, m in (e.get("metrics") or {}).items():
        for key, typ in METRIC_KEYS.items():
            if not isinstance(m.get(key), typ):
                errs.append("metrics.%s.%s: missing or not %s" % (name, key, typ))
        if m.get("better") not in ("lower", "higher"):
            errs.append("metrics.%s.better: not lower/higher" % name)
        if len(m.get("parent_iqr") or []) != 2:
            errs.append("metrics.%s.parent_iqr: not [q1, q3]" % name)
        if isinstance(m.get("wins"), int) and not 0 <= m["wins"] <= m.get("n", -1):
            errs.append("metrics.%s.wins: outside [0, n]" % name)
        spread = m.get("ratio_spread")
        if spread is not None and not (isinstance(spread, list) and len(spread) == 2
                                       and spread[0] <= spread[1]):
            errs.append("metrics.%s.ratio_spread: not [lowest, highest]" % name)
        elif spread is None and e.get("aa") and m.get("parent_median"):
            errs.append("metrics.%s.ratio_spread: missing on an A/A entry" % name)
    if isinstance(e.get("pairs"), int) and e["pairs"] < 1:
        errs.append("pairs: < 1")
    if "aa" in e and not isinstance(e["aa"], bool):
        errs.append("aa: not bool")
    if e.get("aa") and e.get("commit") != e.get("parent"):
        errs.append("aa: commit and parent differ")
    return errs


def check_files(directory):
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    bad = 0
    for path in paths:
        with open(path) as f:
            entries = json.load(f)
        if not isinstance(entries, list) or not entries:
            print("%s: not a non-empty list of entries" % path)
            bad += 1
            continue
        for i, e in enumerate(entries):
            for err in check_entry(e):
                print("%s[%d]: %s" % (path, i, err))
                bad += 1
            want = "BENCH_%s.json" % e.get("workload")
            if os.path.basename(path) != want:
                print("%s[%d]: workload %r belongs in %s" % (path, i, e.get("workload"), want))
                bad += 1
    print("checked %d file(s), %d problem(s)" % (len(paths), bad))
    return 0 if bad == 0 else 1


def make_entry(commit, parent, workload, seconds, seeds, trace, pairs, specs, host, aa=False):
    return {"commit": commit, "parent": parent, "aa": aa,
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "host": host, "workload": workload, "seconds": seconds, "pairs": len(pairs),
            "seeds": seeds, "trace": trace,
            "all_correct": all(p.get("correct") and c.get("correct") for p, c in pairs),
            "metrics": aggregate(pairs, specs)}


def self_test():
    canned = ('{"correct": true, "attempted": 520, "failed": 0, "metrics": {'
              '"setup_s": {"value": 0.010, "unit": "s"}, '
              '"goodput_mib_s": {"value": 900.0, "unit": "MiB/s"}, '
              '"round_s": {"value": 0.220, "unit": "s"}}}')
    base = json.loads(canned)
    specs = metric_specs()
    pairs = []
    for i, (p_round, c_round) in enumerate([(0.22, 0.20), (0.23, 0.19), (0.21, 0.215)]):
        p = json.loads(canned)
        c = json.loads(canned)
        p["metrics"]["round_s"]["value"] = p_round
        c["metrics"]["round_s"]["value"] = c_round
        c["metrics"]["goodput_mib_s"]["value"] = 900.0 + i
        pairs.append((p, c))
    entry = make_entry("c" * 40, "p" * 40, "ckpt_burst", 1, [1, 2, 3], 0, pairs, specs,
                       {"cpu": "test", "nproc": 1, "fs": "test"})
    m = entry["metrics"]
    ok = (set(m) == set(base["metrics"]) and m["round_s"]["wins"] == 2
          and m["round_s"]["parent_median"] == 0.22 and m["round_s"]["change_median"] == 0.2
          and abs(m["round_s"]["ratio"] - 0.2 / 0.22) < 1e-12
          and m["goodput_mib_s"]["wins"] == 2 and m["setup_s"]["wins"] == 0
          and m["round_s"]["parent_iqr"] == [0.215, 0.225] and entry["all_correct"]
          and not check_entry(entry))
    ok = ok and m["round_s"]["ratio_spread"] == [0.19 / 0.23, 0.215 / 0.21]
    broken = dict(entry, pairs=0, host={"cpu": "x"})
    ok = ok and len(check_entry(broken)) == 3
    # A/A: the same commit on both sides, marked, with every spread present.
    aa = make_entry("p" * 40, "p" * 40, "ckpt_burst", 1, [1, 2, 3], 0, pairs, specs,
                    {"cpu": "test", "nproc": 1, "fs": "test"}, aa=True)
    ok = ok and aa["aa"] is True and not check_entry(aa)
    aa_broken = dict(aa, commit="c" * 40, metrics={
        "round_s": dict(aa["metrics"]["round_s"], ratio_spread=None),
        "setup_s": dict(aa["metrics"]["setup_s"], ratio_spread=[1.1, 0.9])})
    ok = ok and len(check_entry(aa_broken)) == 3
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=900, help="pair i runs seed SEED+i")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--aa", action="store_true",
                    help="A/A calibration: run --parent against itself")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--check", nargs="?", const=ROOT, metavar="DIR")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.check:
        return check_files(args.check)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = args.workload or [w["name"] for w in json.load(f)["workloads"]]
    parent = git("rev-parse", args.parent)
    change = parent if args.aa else git("rev-parse", args.change)
    trees = {"parent": export(parent), "change": export(change)}
    specs, host = metric_specs(), host_info()
    seconds = int(args.seconds) if args.seconds == int(args.seconds) else args.seconds
    for workload in workloads:
        pairs, seeds = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            res = {side: run_side(trees[side], workload, seed, seconds, args.trace)
                   for side in order}
            if res["parent"] is None or res["change"] is None:
                print("%s pair %d (seed %d): a run produced no result" % (workload, i, seed),
                      file=sys.stderr)
                return 1
            pairs.append((res["parent"], res["change"]))
            seeds.append(seed)
            print("%s pair %d seed %d: %s" % (workload, i, seed, ", ".join(
                "%s %.4g -> %.4g" % (n, res["parent"]["metrics"][n]["value"],
                                     res["change"]["metrics"][n]["value"])
                for n in ("setup_s", "goodput_mib_s", "round_s")
                if n in res["parent"]["metrics"] and n in res["change"]["metrics"])), flush=True)
        entry = make_entry(change, parent, workload, seconds, seeds, args.trace, pairs, specs, host,
                           aa=args.aa)
        path = os.path.join(ROOT, "BENCH_%s.json" % workload)
        entries = []
        if os.path.isfile(path):
            with open(path) as f:
                entries = json.load(f)
        entries.append(entry)
        with open(path, "w") as f:
            json.dump(entries, f, indent=1)
            f.write("\n")
        for name in ("setup_s", "goodput_mib_s", "round_s"):
            m = entry["metrics"].get(name)
            if m:
                print("%s %s: %.4g -> %.4g (ratio %.3f, pair ratios %.3f-%.3f, parent IQR "
                      "%.4g-%.4g), change won %d/%d"
                      % (workload, name, m["parent_median"], m["change_median"], m["ratio"] or 0,
                         *(m["ratio_spread"] or [0, 0]), m["parent_iqr"][0], m["parent_iqr"][1],
                         m["wins"], m["n"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

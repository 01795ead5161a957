#!/usr/bin/env python3
"""Runs one set of the end-to-end benchmark and checks it against the bounds
in BENCHMARK.json.

A set is every workload once per seed, untraced, seeds in the outer loop so
that a drift of the host spreads over every workload alike. For each
workload and end-to-end metric the set reports the median over the seeds
and the spread (interquartile range over median).

Run from the repository root:

  python3 bench/e2e/sets.py                              # seeds 1-10, all workloads
  python3 bench/e2e/sets.py --seeds 2 --workloads flow   # held-out seed, one workload
  python3 bench/e2e/sets.py --record bench/e2e/baseline.json --label set-1
  python3 bench/e2e/sets.py --against bench/e2e/baseline.json \\
      --record bench/e2e/baseline.json --label set-2

The set passes when every run exits 0 with correct outputs, every spread is
within its metric's bound, and, with --against, no median is worse than the
last set recorded in that file by more than the bound. setup_s is held to
max(bound x median, 50 ms) in both checks, since a set-up of a few
milliseconds moves by more than any share of itself between processes.
--record appends the set, its verdict and the host meta and calibration
number to a baseline file, whether it passed or not. The exit code is 0
when the set passes. Per-run documents land in .e2e_sets/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_FLOOR_S = 0.05


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def allowed(name, bound, reference):
    """How far a metric may move from [reference] before it breaks its bound."""
    share = bound * abs(reference)
    return max(share, SETUP_FLOOR_S) if name == "setup_s" else share


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="N or LO-HI (default 1-10)")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--against", help="compare medians with the last set in this baseline file")
    ap.add_argument("--record", help="append this set to a baseline JSON file")
    ap.add_argument("--label", default="set", help="name of the set in --record")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seeds_of(args.seeds)
    previous = json.load(open(args.against))["sets"][-1] if args.against else None
    os.makedirs(".e2e_sets", exist_ok=True)

    runs, docs, violations = {w: [] for w in workloads}, [], []
    for seed in seeds:
        for w in workloads:
            doc_path = os.path.join(".e2e_sets", f"{w}-{seed}.json")
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0", "--json", doc_path]
            t0 = time.monotonic()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - t0
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
                docs.append(json.load(open(doc_path)))
            except (IndexError, ValueError, OSError):
                violations.append(f"{w} seed {seed}: no result (exit {out.returncode})")
                continue
            if out.returncode != 0 or not result["correct"]:
                violations.append(f"{w} seed {seed}: exit {out.returncode}, "
                                  f"{result['failed']} of {result['attempted']} failed")
            runs[w].append({"seed": seed, "exit": out.returncode, "elapsed_s": elapsed, **result})
            print(f"{w} seed {seed}: exit {out.returncode}, {result['failed']} of "
                  f"{result['attempted']} failed, {elapsed:.1f} s", file=sys.stderr)

    summary = {}
    print(f"{'workload':12s} {'metric':12s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'vs last':>8s}")
    for w, rs in runs.items():
        if not rs:
            continue
        summary[w] = {"elapsed_s": [r["elapsed_s"] for r in rs]}
        for name, m in metrics.items():
            xs = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med
            summary[w][name] = {"median": med, "spread": spread, "values": xs}
            flag = ""
            if q[2] - q[0] > allowed(name, m["bound"], med):
                violations.append(f"{w} {name}: spread {spread:.2%} over bound {m['bound']}")
                flag = " SPREAD OVER BOUND"
            elif spread > m["bound"] / 3:
                flag = " spread over a third of the bound"
            change = ""
            if previous and w in previous["workloads"]:
                old = previous["workloads"][w][name]["median"]
                worse = med - old if m["better"] == "lower" else old - med
                change = f"{(med - old) / old:+8.2%}"
                if worse > allowed(name, m["bound"], old):
                    violations.append(f"{w} {name}: median {med:.6g} vs {old:.6g}, worse than bound {m['bound']}")
                    flag += " WORSE THAN LAST SET"
            print(f"{w:12s} {name:12s} {med:12.6g} {spread:8.2%} {m['bound']:6.2f} {change:>8s}{flag}")

    ok = not violations
    for v in violations:
        print("violation: " + v)
    print("set " + ("passes" if ok else "fails"))

    if args.record and docs:
        base = json.load(open(args.record)) if os.path.exists(args.record) else {
            "meta": docs[0]["meta"], "calibration_ns": docs[0]["calibration_ns"],
            "run_seconds": bench["run_seconds"], "sets": []}
        base["sets"].append({"label": args.label, "seeds": seeds, "meta": docs[0]["meta"],
                             "calibration_ns": docs[0]["calibration_ns"],
                             "against": previous["label"] if previous else None,
                             "passed": ok, "violations": violations, "workloads": summary})
        with open(args.record, "w") as f:
            json.dump(base, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs the e2ebench benchmark several times and reports each metric's
median, quartiles and spread against the bounds in BENCHMARK.json.

Run from the root of the checkout:

  python3 e2ebench/spread.py                     # ten seeds on every workload
  python3 e2ebench/spread.py --workloads grid --runs 5
  python3 e2ebench/spread.py --seed-check        # default seed vs a held-out seed
  python3 e2ebench/spread.py --out result.json   # also keep host, medians, quartiles

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4). Results record the host
fingerprint each run printed, so two result files are compared only
when they come from the same host.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def run_once(workload, seed, seconds):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return host, json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def measure(workload, seeds, seconds):
    hosts, per = [], {}
    for seed in seeds:
        start = time.monotonic()
        host, res = run_once(workload, seed, seconds)
        hosts.append(host)
        if not res["correct"] or res["failed"]:
            sys.exit(f"{workload} seed {seed}: output check failed: {res}")
        for name, m in res["metrics"].items():
            per.setdefault(name, []).append(m["value"])
        print(f"  {workload} seed {seed} done in {time.monotonic() - start:.1f}s", file=sys.stderr)
    machine = lambda h: {k: h.get(k) for k in ("cpu", "nproc", "gomaxprocs", "go")}
    if any(machine(h) != machine(hosts[0]) for h in hosts):
        sys.exit(f"{workload}: runs reported different hosts: {hosts}")
    return hosts[0], {name: summarize(vals) for name, vals in per.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-check", action="store_true",
                    help=f"compare --runs runs at seed {DEFAULT_SEED} with as many at seed {HELD_OUT_SEED}")
    ap.add_argument("--out", help="write host, medians and quartiles to this JSON file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report, ok = {}, True
    for w in args.workloads.split(","):
        if args.seed_check:
            # Repeats of one seed differ only by noise, so each side is
            # the median of its repeats.
            host, a = measure(w, [DEFAULT_SEED] * args.runs, args.seconds)
            _, b = measure(w, [HELD_OUT_SEED] * args.runs, args.seconds)
            print(f"{w}: seed {DEFAULT_SEED} vs held-out seed {HELD_OUT_SEED}")
            for name, s in sorted(a.items()):
                delta = b[name]["median"] / s["median"] - 1 if s["median"] else 0.0
                verdict = "ok" if abs(delta) <= bounds[name] else "DIFFERS"
                ok &= verdict != "DIFFERS"
                print(f"  {name:<22} {s['median']:>14.6g} {b[name]['median']:>14.6g} {delta:+8.3f}  {verdict}")
            report[w] = {"host": host, "default": a, "held_out": b}
            continue
        seeds = list(range(DEFAULT_SEED, DEFAULT_SEED + args.runs))
        host, stats = measure(w, seeds, args.seconds)
        print(f"{w}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, host {host.get('cpu')} x{host.get('nproc')}")
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, s in sorted(stats.items()):
            bound = bounds[name]
            verdict = "ok" if s["spread"] <= bound / 3 else ("wide" if s["spread"] <= bound else "OVER")
            ok &= verdict != "OVER"
            print(f"  {name:<26} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['spread']:>8.4f} {bound:>6}  {verdict}")
        report[w] = {"host": host, "seeds": seeds, "metrics": stats}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: two sets of repeated runs of one build, made apart in time.

Run from the repository root:

  python3 kvbench/steady.py [--runs 10] [--pause 120] [--workloads a,b] [--json out.json]

Each set runs every workload --runs times with a fresh seed per run,
alternating the workloads (the order rotates every round) so slow drift of
the host falls on all of them alike. The second set starts --pause seconds
after the first ends. For every end-to-end metric and workload it prints
each set's median and quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the gap between the two medians in the metric's
worse direction, against the bound in BENCHMARK.json: a spread must stay
under a third of the bound (setup_s excepted) and the gap within the bound.
It also checks that failed operations are the same share of attempted
ones in both sets. Exit code 0 when every check holds.
"""
import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as kvbench  # noqa: E402

SPEC = json.load(open(os.path.join(kvbench.ROOT, "BENCHMARK.json")))


def one_set(workloads, runs, seconds, seed0, trace):
    """{workload: [result dict, ...]} for one set of runs."""
    out = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            code, text = kvbench.run(w, seed0 + i, seconds, trace, capture=True)
            lines = (text or "").strip().splitlines()
            if code != 0 or not lines:
                sys.exit(f"steady: {w} seed {seed0 + i} exited {code}")
            out[w].append(json.loads(lines[-1]))
            print(f"  {w} seed {seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in out[w][-1]["metrics"].items()),
                file=sys.stderr, flush=True)
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--pause", type=float, default=120)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--json", help="also write every run's result here")
    a = p.parse_args()
    workloads = a.workloads.split(",")
    kvbench.build()

    started = time.time()
    sets = []
    for k, seed0 in enumerate((1000, 2000)):
        if k:
            time.sleep(a.pause)
        print(f"set {k + 1}: {a.runs} runs x {len(workloads)} workloads, "
              f"{a.seconds:g} s each", file=sys.stderr, flush=True)
        sets.append(one_set(workloads, a.runs, a.seconds, seed0, a.trace))
    if a.json:
        with open(a.json, "w") as f:
            json.dump(sets, f)

    metrics = SPEC["end_to_end"] if a.trace == 0 else SPEC["per_layer"]
    ok = True
    print(f"# {a.runs} runs per set, {a.seconds:g} s each, pause {a.pause:g} s, "
          f"{(time.time() - started) / 60:.1f} min in all")
    print(f"{'workload':<12} {'metric':<28} {'set1 median [Q1, Q3]':>34} {'spread':>7}"
          f" {'set2 median [Q1, Q3]':>34} {'spread':>7} {'gap':>7} {'bound':>6}  verdict")
    for w in workloads:
        share = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                 for s in sets]
        if share[0] != share[1]:
            ok = False
            print(f"{w:<12} failed share differs between sets: {share}")
        for m in metrics:
            vals = [[r["metrics"][m["name"]]["value"] for r in s[w]
                     if m["name"] in r["metrics"]] for s in sets]
            if not vals[0] or not vals[1]:
                continue
            s1, s2 = summary(vals[0]), summary(vals[1])
            spread = [(q3 - q1) / med for med, q1, q3 in (s1, s2)]
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (s2[0] - s1[0]) / s1[0]
            verdict = "ok"
            bound = m.get("bound")
            if bound is not None:
                if m["name"] != "setup_s" and max(spread) >= bound / 3:
                    verdict = "SPREAD"
                if gap > bound:
                    verdict = "DRIFT"
                ok &= verdict == "ok"
            fmt = "{:.5g} [{:.5g}, {:.5g}]"
            print(f"{w:<12} {m['name']:<28} {fmt.format(*s1):>34} {spread[0]:>7.3f}"
                  f" {fmt.format(*s2):>34} {spread[1]:>7.3f} {gap:>+7.3f}"
                  f" {bound if bound is not None else '-':>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

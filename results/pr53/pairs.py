#!/usr/bin/env python3
"""Paired table of two lcbench history files: for each workload and
end-to-end metric, the runs are paired by seed; a pair is better when
the change's run median beats the parent's in the metric's direction."""
import json, sys, statistics

def load(path):
    runs = {}
    for line in open(path):
        r = json.loads(line)
        runs[(r["workload"], r["seed"])] = r
    return runs

def quartiles(xs):
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

BETTER = {"setup_s": "lower", "wall_ms": "lower", "msgs_per_s": "higher", "mb_per_s": "higher",
          "rtt_p50_us": "lower", "recovery_ms": "lower", "piggyback_bytes_per_msg": "lower",
          "wire_bytes_per_msg": "lower", "peak_rss_mb": "lower", "ok_share": "higher"}
WORKLOADS = ["pair_stream", "pair_pingpong", "pair_bulk", "ring_wide_tdi", "ring_wide_tdis",
             "lu_threads", "pair_recover"]

a, b = load(sys.argv[1]), load(sys.argv[2])
print(f"{'workload':<15} {'metric':<24} {'pairs':>5} {'better':>6} {'worse':>6} {'parent_med':>12} {'change_med':>12} {'med_delta%':>10} {'par_IQR':>10} {'gap/IQR':>8}")
for w in WORKLOADS:
    seeds = sorted(s for (ww, s) in a if ww == w and (ww, s) in b)
    for m, d in BETTER.items():
        pa = [a[(w, s)]["metrics"][m]["median"] for s in seeds]
        pb = [b[(w, s)]["metrics"][m]["median"] for s in seeds]
        better = sum((y < x) if d == "lower" else (y > x) for x, y in zip(pa, pb))
        worse = sum((y > x) if d == "lower" else (y < x) for x, y in zip(pa, pb))
        ma, mb = statistics.median(pa), statistics.median(pb)
        q1, q3 = quartiles(pa)
        iqr = q3 - q1
        delta = (mb - ma) / ma * 100 if ma else 0.0
        gap = abs(mb - ma) / iqr if iqr > 0 else float("inf") if mb != ma else 0.0
        print(f"{w:<15} {m:<24} {len(seeds):>5} {better:>6} {worse:>6} {ma:>12.4f} {mb:>12.4f} {delta:>10.2f} {iqr:>10.4f} {gap:>8.2f}")

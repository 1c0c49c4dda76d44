#!/usr/bin/env python3
"""Summarise and compare bench_layers runs.

Each run is one file holding a run's standard output (run.py or
bench_layers): its last line is the JSON result and the "record ..."
line before it carries provenance and the output digest.

    compare.py RUNS                 spread of each metric in one set
    compare.py BASE NEW             verdict per workload and metric
    compare.py --same SET_A SET_B   repeatability of one commit

A verdict: "improved" needs NEW to win at least 9 of 10 run pairs (runs paired in file-name order, ties
count for neither) and medians further apart than BASE's quartile
spread; "regressed" is a NEW median worse than BASE's by more than the
metric's bound in BENCHMARK.json; a metric whose spread is wider than
its bound is "unresolved" unless every NEW run beats every BASE run.
--same requires every median to agree within its bound and every
digest and count to be identical; it exits nonzero otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(directory):
    """[(name, record, result)] for every run file in @p directory."""
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = [line.strip() for line in f if line.strip()]
        record = next((json.loads(line[len("record "):])
                       for line in reversed(lines)
                       if line.startswith("record {")), None)
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if record is None or not isinstance(result, dict):
            print("skipping %s: no bench_layers result" % path,
                  file=sys.stderr)
            continue
        runs.append((name, record, result))
    return runs


def by_workload(runs):
    """{(workload, traced): [(record, result)]}."""
    groups = {}
    for _, record, result in runs:
        key = (record["workload"], record["traced"])
        groups.setdefault(key, []).append((record, result))
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def metric_values(entries, name):
    return [r["metrics"][name]["value"] for _, r in entries
            if name in r["metrics"]]


def load_spec():
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {}
    for m in spec.get("end_to_end", []):
        metrics[m["name"]] = (m["better"], m["bound"], m["unit"])
    for m in spec.get("per_layer", []):
        metrics[m["name"]] = (m["better"], None, m["unit"])
    return metrics


def fmt(v):
    return "%.6g" % v


def host_line(runs):
    hosts = {json.dumps({k: v for k, v in rec["host"].items()
                         if k != "steal_frac"}, sort_keys=True)
             for _, rec, _ in runs}
    steal = [rec["host"].get("steal_frac", 0.0) for _, rec, _ in runs]
    return "%s; median steal_frac %.4f, max %.4f" % (
        "; ".join(sorted(hosts)), statistics.median(steal), max(steal))


def summarise(runs, spec):
    print("host: %s" % host_line(runs))
    print("%-15s %-6s %-30s %8s %12s %12s %12s %8s %6s" %
          ("workload", "traced", "metric", "unit", "q1", "median", "q3",
           "spread", "steady"))
    ok = True
    for (workload, traced), entries in sorted(by_workload(runs).items()):
        correct = all(r["correct"] for _, r in entries)
        ok = ok and correct
        names = list(entries[0][1]["metrics"])
        for name in names:
            values = metric_values(entries, name)
            q1, med, q3 = quartiles(values)
            better, bound, unit = spec.get(name, ("?", None, "?"))
            s = spread(values)
            steady = "-" if bound is None else (
                "yes" if s < bound / 3 else "NO")
            print("%-15s %-6s %-30s %8s %12s %12s %12s %8.4f %6s" %
                  (workload, traced, name, unit, fmt(q1), fmt(med),
                   fmt(q3), s, steady))
        print("%-15s %-6s runs=%d all correct=%s" %
              (workload, traced, len(entries), correct))
    return ok


def worse_by(base, new, better):
    """Relative change of @p new against @p base, positive = worse."""
    if base == 0:
        return 0.0
    rel = (new - base) / abs(base)
    return rel if better == "lower" else -rel


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, new, better, bound):
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b, better))
    win_frac = wins / len(pairs) if pairs else 0.0
    q1, base_med, q3 = quartiles(base)
    new_med = statistics.median(new)
    all_better = all(beats(n, b, better) for n in new for b in base)
    if bound is None:
        if not (set(base) ^ set(new)):
            return "same", win_frac
        return "info", win_frac
    if win_frac >= 0.9 and abs(new_med - base_med) > (q3 - q1):
        return "improved", win_frac
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", win_frac
    if worse_by(base_med, new_med, better) > bound:
        return "regressed", win_frac
    return "unchanged", win_frac


def compare(base_runs, new_runs, spec):
    print("base host: %s" % host_line(base_runs))
    print("new host:  %s" % host_line(new_runs))
    base_g, new_g = by_workload(base_runs), by_workload(new_runs)
    print("%-15s %-6s %-30s %12s %12s %9s %6s %10s" %
          ("workload", "traced", "metric", "base_med", "new_med",
           "change", "wins", "verdict"))
    regressed = False
    for key in sorted(set(base_g) & set(new_g)):
        workload, traced = key
        for name in base_g[key][0][1]["metrics"]:
            base = metric_values(base_g[key], name)
            new = metric_values(new_g[key], name)
            if not base or not new:
                continue
            better, bound, _ = spec.get(name, ("lower", None, "?"))
            v, win_frac = verdict(base, new, better, bound)
            regressed = regressed or v == "regressed"
            change = -worse_by(statistics.median(base),
                               statistics.median(new), better)
            print("%-15s %-6s %-30s %12s %12s %+8.2f%% %6.2f %10s" %
                  (workload, traced, name, fmt(statistics.median(base)),
                   fmt(statistics.median(new)), 100 * change, win_frac, v))
        failed = [r for _, r in new_g[key] if not r["correct"]]
        if failed:
            print("%-15s %-6s %d new runs failed their checks" %
                  (workload, traced, len(failed)))
            regressed = True
    return not regressed


def same_code(a_runs, b_runs, spec):
    """Repeatability: medians within bounds, digests and counts exact."""
    ok = True
    a_g, b_g = by_workload(a_runs), by_workload(b_runs)
    print("%-15s %-6s %-30s %12s %12s %9s %7s %8s" %
          ("workload", "traced", "metric", "a_median", "b_median",
           "diff", "bound", "agree"))
    for key in sorted(set(a_g) | set(b_g)):
        workload, traced = key
        if key not in a_g or key not in b_g:
            print("%-15s %-6s missing from one set" % key)
            ok = False
            continue
        for name in a_g[key][0][1]["metrics"]:
            a = metric_values(a_g[key], name)
            b = metric_values(b_g[key], name)
            better, bound, unit = spec.get(name, ("lower", None, "?"))
            am, bm = statistics.median(a), statistics.median(b)
            diff = worse_by(am, bm, better)
            if unit == "count":
                agree = counts_repeat(a_g[key] + b_g[key], name)
            elif bound is None:
                agree = None
            else:
                agree = abs(diff) <= bound
            ok = ok and agree is not False
            print("%-15s %-6s %-30s %12s %12s %+8.2f%% %7s %8s" %
                  (workload, traced, name, fmt(am), fmt(bm), 100 * diff,
                   "-" if bound is None else bound,
                   "-" if agree is None else ("yes" if agree else "NO")))
        digests = {}
        for rec, res in a_g[key] + b_g[key]:
            digests.setdefault((rec["seed"], rec["mode"]), set()).add(
                rec["digest"])
            ok = ok and res["correct"]
        for (seed, mode), ds in sorted(digests.items()):
            same = len(ds) == 1
            ok = ok and same
            print("%-15s %-6s digest seed=%s %s: %s" %
                  (workload, traced, seed, mode,
                   next(iter(ds)) if same else "DIFFER " + str(sorted(ds))))
    print("repeatable" if ok else "NOT repeatable")
    return ok


def counts_repeat(entries, name):
    """Counts may depend on the seed; they must repeat per seed."""
    per_seed = {}
    for rec, res in entries:
        if name in res["metrics"]:
            per_seed.setdefault(rec["seed"], set()).add(
                res["metrics"][name]["value"])
    return all(len(v) == 1 for v in per_seed.values())


def main():
    p = argparse.ArgumentParser(
        description="Summarise or compare bench_layers runs.")
    p.add_argument("dirs", nargs="+", help="one or two run directories")
    p.add_argument("--same", action="store_true",
                   help="both directories hold runs of one commit")
    args = p.parse_args()
    spec = load_spec()
    sets = [load_runs(d) for d in args.dirs]
    if any(not s for s in sets):
        sys.exit("compare.py: a directory holds no runs")
    if len(sets) == 1:
        return 0 if summarise(sets[0], spec) else 1
    if len(sets) != 2:
        sys.exit("compare.py: give one or two directories")
    if args.same:
        return 0 if same_code(sets[0], sets[1], spec) else 1
    return 0 if compare(sets[0], sets[1], spec) else 1


if __name__ == "__main__":
    sys.exit(main())

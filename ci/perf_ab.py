#!/usr/bin/env python3
"""Interleaved A/B of the benchmark on two checkouts.

    python3 ci/perf_ab.py [--trace] PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS SEED0

Runs `perfbench/run.py --workload WORKLOAD --seconds SECONDS --trace 0`
in both checkouts PAIRS times. Pair k uses seed SEED0 + k on both sides
and alternates which side runs first, so a drift of the host's speed
lands on both. Each checkout builds into its own `.bench_build` target
directory; an inherited CARGO_TARGET_DIR is overridden.

Prints every pair, then for each end-to-end metric of CHANGE_DIR's
BENCHMARK.json: the median and quartiles per side, the change of the
median, the median and quartiles of the paired change (each pair's
change / parent - 1), and in how many pairs the change was lower. The
change of the medians and the median paired change can differ in sign
when the runs spread. Under the metric's
`bound` (a relative change) and `better` direction it then prints one
verdict:

- "worse beyond bound": the change's median is worse than the parent's
  by more than the bound;
- "unresolved": otherwise, the parent's quartile spread (relative to
  its median) is wider than the bound and not every change run beats
  every parent run, so the runs cannot tell;
- "within bound": neither.

It also prints whether the claim rule holds: the change is better in at
least 9 of every 10 pairs, and the medians differ in its favour by more
than the parent's quartile spread. Last come the `failed` counts per
side: runs that gave no result (a failed build or gate) and the failed
operations the others reported. Exits 1 if either is non-zero.

With `--trace` the runs are traced (`--trace 1`), and the report covers
BENCHMARK.json's `per_layer` metrics instead: per side the median and
quartiles, the change of the median, the paired change and the lower-in
count, with no
bound verdict and no claim rule (a traced run's timings carry the
tracer's cost). Metrics that read 0 in every run of both sides (another
workload's) are left out, and so are the per-pair rows.
"""

import json
import os
import statistics
import subprocess
import sys


def bench(root, args):
    """Run the checkout's benchmark with `args`; return (exit code, result)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    run = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py")] + args,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = run.stdout.strip().splitlines()
    result = None
    if run.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return run.returncode, result


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def paired_change(paired):
    """(first quartile, median, third quartile) of each pair's relative
    change, change / parent - 1, in percent; None without a usable pair."""
    rel = [(c / p - 1) * 100 for p, c in paired if p]
    return quartiles(rel) if rel else None


def verdict(metric, parent, change, paired):
    """The bound verdict and the claim-rule line for one metric."""
    sign = 1 if metric["better"] == "lower" else -1
    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    worse = sign * (cmed - pmed) / pmed if pmed else float("inf")
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    beats_all = (max(change) < min(parent)) if sign == 1 else (min(change) > max(parent))
    if worse > metric["bound"]:
        bound = "worse beyond bound"
    elif spread > metric["bound"] and not beats_all:
        bound = "unresolved"
    else:
        bound = "within bound"
    better = sum(1 for p, c in paired if sign * (c - p) < 0)
    gap = -sign * (cmed - pmed)
    holds = bool(paired) and better * 10 >= 9 * len(paired) and gap > pq3 - pq1
    claim = (f"claim rule {'holds' if holds else 'does not hold'} "
             f"(better in {better} of {len(paired)} pairs; median gap {gap:+.4f} "
             f"vs parent quartile spread {pq3 - pq1:.4f})")
    return (f"{bound} (worse by {worse * 100:+.2f} %, bound {metric['bound'] * 100:.0f} %, "
            f"parent spread {spread * 100:.2f} %)"), claim


def main(argv):
    trace = "--trace" in argv[1:]
    argv = [a for a in argv if a != "--trace"]
    if len(argv) != 7:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = os.path.abspath(argv[1]), os.path.abspath(argv[2])
    workload, pairs, seconds, seed0 = argv[3], int(argv[4]), argv[5], int(argv[6])
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["per_layer" if trace else "end_to_end"]

    sides = {"parent": parent, "change": change}
    values = {name: {m["name"]: [] for m in metrics} for name in sides}
    paired = {m["name"]: [] for m in metrics}
    no_result = {name: 0 for name in sides}
    failed_ops = {name: 0 for name in sides}
    for k in range(pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        args = ["--workload", workload, "--seed", str(seed0 + k), "--seconds", seconds,
                "--trace", "1" if trace else "0"]
        got = {}
        for name in order:
            code, result = bench(sides[name], args)
            if code != 0 or result is None:
                no_result[name] += 1
                continue
            failed_ops[name] += result.get("failed", 0)
            got[name] = {m: v["value"] for m, v in result["metrics"].items()}
        row = []
        for m in metrics:
            name = m["name"]
            for side in sides:
                if side in got and name in got[side]:
                    values[side][name].append(got[side][name])
            if len(got) == 2:
                paired[name].append((got["parent"][name], got["change"][name]))
                row.append(f"{name} {got['parent'][name]:.4f} -> {got['change'][name]:.4f}")
        first = "parent first" if order[0] == "parent" else "change first"
        if trace:
            row = [f"{side} {'ok' if side in got else 'failed'}" for side in order]
        print(f"pair {k + 1}/{pairs} seed {seed0 + k} ({first}): " + ("; ".join(row) or "failed"),
              flush=True)

    print(f"\n{workload}: {pairs} alternating {'traced ' if trace else ''}pairs "
          f"at --seconds {seconds}")
    for m in metrics:
        name, unit = m["name"], m["unit"]
        if not values["parent"][name] or not values["change"][name]:
            print(f"{name}: no successful runs on one side")
            continue
        if trace and not any(values["parent"][name] + values["change"][name]):
            continue
        pq1, pmed, pq3 = quartiles(values["parent"][name])
        cq1, cmed, cq3 = quartiles(values["change"][name])
        lower = sum(1 for p, c in paired[name] if c < p)
        delta = (cmed - pmed) / pmed * 100 if pmed else float("nan")
        rel = paired_change(paired[name])
        rel = (f"paired change {rel[1]:+.2f} % [q1 {rel[0]:+.2f} %, q3 {rel[2]:+.2f} %]"
               if rel else "no paired change")
        print(
            f"{name} ({unit}, {m['better']} is better): "
            f"parent median {pmed:.4f} [q1 {pq1:.4f}, q3 {pq3:.4f}], "
            f"change median {cmed:.4f} [q1 {cq1:.4f}, q3 {cq3:.4f}], "
            f"change {delta:+.2f} %, {rel}, lower in {lower} of {len(paired[name])}"
        )
        if trace:
            continue
        bound, claim = verdict(m, values["parent"][name], values["change"][name], paired[name])
        print(f"  {name}: {bound}; {claim}")
    for name in sides:
        print(f"failed {name}: {no_result[name]} runs without a result, "
              f"{failed_ops[name]} failed operations")
    return 1 if any(no_result.values()) or any(failed_ops.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

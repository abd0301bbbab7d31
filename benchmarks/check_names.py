#!/usr/bin/env python3
"""Checks the benchmark's stdout against BENCHMARK.json (used by check.sh).

  check_names.py BENCHMARK.json E2E.txt LAYERS.txt
      every listed workload x end-to-end metric is printed exactly once in
      E2E.txt, every per-layer metric exactly once in LAYERS.txt, with the
      listed unit, and nothing unlisted is printed.
  check_names.py BENCHMARK.json --compare FIRST.txt SECOND.txt
      no end-to-end metric of two runs differs by more than its own bound.
"""
import json
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Travels in the result line's `attempted`/`failed` keys, not in `metrics`.
UNGATED = {"failed_share": "ratio"}
# Set-up takes milliseconds, so its bound has an absolute floor.
SETUP_FLOOR_S = 0.05


def metric_lines(path):
    rows = []
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("{"):
            continue  # the JSON result line of a single-workload run
        parts = line.split()
        if len(parts) != 4:
            sys.exit(f"{path}: not a `workload metric value unit` line: {line!r}")
        workload, metric, value, unit = parts
        if not (NAME.match(workload) and NAME.match(metric)):
            sys.exit(f"{path}: malformed name in {line!r}")
        rows.append((workload, metric, float(value), unit))
    return rows


def check_printed(path, rows, workloads, listed):
    seen = {}
    for workload, metric, _, unit in rows:
        if workload not in workloads:
            sys.exit(f"{path}: workload {workload} is not in BENCHMARK.json")
        if metric not in listed:
            sys.exit(f"{path}: metric {metric} is not in BENCHMARK.json")
        if unit != listed[metric]:
            sys.exit(f"{path}: {metric} printed in {unit}, listed in {listed[metric]}")
        seen[(workload, metric)] = seen.get((workload, metric), 0) + 1
    for workload in workloads:
        for metric in listed:
            count = seen.get((workload, metric), 0)
            if count != 1:
                sys.exit(f"{path}: {workload} {metric} printed {count} times, expected once")


def main():
    manifest = json.load(open(sys.argv[1]))
    workloads = [w["name"] for w in manifest["workloads"]]
    end_to_end = {m["name"]: m for m in manifest["end_to_end"]}
    for name in workloads + list(end_to_end) + [m["name"] for m in manifest["per_layer"]]:
        if not NAME.match(name):
            sys.exit(f"BENCHMARK.json: malformed name {name!r}")

    if sys.argv[2] == "--compare":
        first = {(w, m): v for w, m, v, _ in metric_lines(sys.argv[3])}
        second = {(w, m): v for w, m, v, _ in metric_lines(sys.argv[4])}
        worst = 0
        for (workload, metric), a in sorted(first.items()):
            b = second[(workload, metric)]
            if metric in UNGATED:
                if a != 0 or b != 0:
                    sys.exit(f"{workload} {metric}: operations failed ({a}, {b})")
                continue
            bound = end_to_end[metric]["bound"]
            allowed = abs(a) * bound
            if metric == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S)
            share = abs(a - b) / abs(a)
            flag = "ok" if abs(a - b) <= allowed else "DIFFERS"
            print(f"{workload:15s} {metric:18s} {a:16.4f} {b:16.4f} {share*100:6.2f}% of {bound*100:.0f}% {flag}")
            worst += flag != "ok"
        if worst:
            sys.exit(f"{worst} end-to-end metrics differ by more than their bound")
        return

    listed = {name: m["unit"] for name, m in end_to_end.items()}
    listed.update(UNGATED)
    check_printed(sys.argv[2], metric_lines(sys.argv[2]), workloads, listed)
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    check_printed(sys.argv[3], metric_lines(sys.argv[3]), ["table1-cold"], per_layer)
    print(f"names ok: {len(workloads)} workloads x {len(listed)} end-to-end lines, "
          f"{len(per_layer)} per-layer lines")


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Gates CI on sweep-throughput regressions.
#
# Compares a freshly measured BENCH_estimator.json against the committed
# one. Raw items/s depends on the runner, so each gate compares a RATIO of
# two numbers measured in the same run (same grid, same machine, same
# load), in which runner speed cancels out:
#
#   kernel advantage   sweep_items_per_sec / sweep_items_per_sec_scalar
#                      (a drop means the batch kernel itself regressed)
#   serialised share   sweep_items_per_sec_serialised / sweep_items_per_sec
#                      (a drop means dump() regressed: a layer both paths
#                      share, invisible to the kernel advantage)
#   warm served        sweep_items_per_sec_warm_served / sweep_items_per_sec
#                      (a drop means serving cached results got dearer, e.g.
#                      a return to per-hit tree copies or re-serialising
#                      frozen results)
#
# A drop of more than the threshold in any ratio fails the gate.
#
# Usage: scripts/check_bench_regression.sh <fresh.json> [committed.json]
set -euo pipefail

fresh="${1:?usage: check_bench_regression.sh <fresh.json> [committed.json]}"
committed="${2:-BENCH_estimator.json}"
threshold="${QRE_BENCH_REGRESSION_THRESHOLD:-0.10}"

python3 - "$fresh" "$committed" "$threshold" <<'PY'
import json
import sys

fresh_path, committed_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])

def ratio(path, numerator, denominator):
    with open(path) as f:
        metrics = json.load(f)["metrics"]
    top, bottom = metrics[numerator], metrics[denominator]
    if bottom <= 0:
        sys.exit(f"{path}: {denominator} must be positive, got {bottom}")
    return top, bottom, top / bottom

failed = False
for label, numerator, denominator in (
        ("kernel advantage", "sweep_items_per_sec", "sweep_items_per_sec_scalar"),
        ("serialised share", "sweep_items_per_sec_serialised", "sweep_items_per_sec"),
        ("warm served", "sweep_items_per_sec_warm_served", "sweep_items_per_sec")):
    c_top, c_bottom, c_ratio = ratio(committed_path, numerator, denominator)
    f_top, f_bottom, f_ratio = ratio(fresh_path, numerator, denominator)
    print(f"{label}: {numerator} / {denominator}")
    print(f"  committed: {c_top:10.0f} / {c_bottom:10.0f} items/s = {c_ratio:.3f}x")
    print(f"  fresh:     {f_top:10.0f} / {f_bottom:10.0f} items/s = {f_ratio:.3f}x")
    floor = c_ratio * (1.0 - threshold)
    if f_ratio < floor:
        print(f"  REGRESSION: {f_ratio:.3f}x is more than {threshold:.0%} below the "
              f"committed {c_ratio:.3f}x (floor {floor:.3f}x)")
        failed = True
    else:
        print(f"  OK: within {threshold:.0%} of the committed ratio (floor {floor:.3f}x)")
if failed:
    sys.exit("REGRESSION: see above")
PY

#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the root of a checkout (takes a few minutes; builds first):

    python3 perfbench/selftest.py

Checks that
  * the response oracle counts deliberately corrupted responses as failed
    (qre_perfbench --self-test);
  * every workload runs briefly, with and without tracing, reports correct
    output and no failures, and prints every metric BENCHMARK.json names,
    with its unit;
  * the traffic digest is a function of the seed: the same seed gives the
    same digest, another seed a different one.
Exits non-zero on the first violation.
"""
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path.cwd()
RUN = [sys.executable, str(pathlib.Path(__file__).resolve().parent / "run.py")]
SECONDS = "1"


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, seed, trace):
    r = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                              "--seconds", SECONDS, "--trace", str(trace)],
                       capture_output=True, text=True)
    check(r.returncode == 0, f"{workload} seed {seed} trace {trace} exited {r.returncode}:\n"
                             + r.stderr[-3000:])
    lines = r.stdout.strip().splitlines()
    digest = re.search(r"traffic_digest=([0-9a-f]{16})", r.stdout)
    check(digest is not None, f"{workload}: no traffic digest printed")
    return digest.group(1), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Builds both binaries, then shows the oracle rejecting corrupted bodies.
    run(spec["workloads"][0]["name"], 1, 0)
    r = subprocess.run([str(ROOT / ".bench_build" / "cmake" / "qre_perfbench"), "--self-test"],
                       capture_output=True, text=True)
    sys.stderr.write(r.stderr)
    check(r.returncode == 0, "the oracle accepted a corrupted response")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            digest, result = run(workload, 7, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']} attempted={result['attempted']}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                check(got is not None, f"{workload} trace {trace}: metric {m['name']} missing")
                check(got["unit"] == m["unit"],
                      f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
                check(isinstance(got["value"], (int, float)), f"{m['name']} is not a number")
            check(len(result["metrics"]) == len(spec[key]),
                  f"{workload} trace {trace}: unexpected extra metrics")
            if trace == 0:
                first = digest
            else:
                check(digest == first, f"{workload}: seed 7 gave digests {first} and {digest}")
        other, _ = run(workload, 8, 0)
        check(other != first, f"{workload}: seeds 7 and 8 gave the same digest {first}")
        print(f"selftest: {workload} ok (digest {first})")
    print("selftest: OK")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Sweeps serve's offered load: one untraced run per (rate, seed).

    python3 viabench/sweep_rate.py [--seconds S] [--seeds N] RATE [RATE ...]

Run from the root of a checkout.  For each rate (calls per second) and each
seed 1..N it runs `viabench/run.py --workload serve --rate RATE` and prints
one row: the reactor workers' busy share, the most requests outstanding,
the calls acknowledged per second, and the decision and report latencies.
A backlog shows as a calls_per_s below the offered rate and outstanding
requests in the thousands.
"""

import json
import os
import re
import subprocess
import sys

LOAD = re.compile(r"reactor workers ([\d.]+)% busy.*outstanding requests at most (\d+)")


def run(rate, seed, seconds):
    here = os.path.dirname(os.path.abspath(__file__))
    command = [sys.executable, os.path.join(here, "run.py"), "--workload", "serve",
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--rate", str(rate)]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    load = next(LOAD.search(line) for line in lines if LOAD.search(line))
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return float(load.group(1)), int(load.group(2)), result["correct"], metrics


def main():
    args = sys.argv[1:]
    seconds, seeds = 15, 2
    while args and args[0].startswith("--"):
        flag, value = args[0], args[1]
        args = args[2:]
        if flag == "--seconds":
            seconds = int(value)
        elif flag == "--seeds":
            seeds = int(value)
        else:
            sys.exit(f"unknown flag {flag}")
    if not args:
        sys.exit(__doc__)
    print("rate  seed  busy%  max_out  correct  calls_per_s  decide_p50  decide_p90  report_p50")
    for rate in (int(r) for r in args):
        for seed in range(1, seeds + 1):
            busy, outstanding, correct, m = run(rate, seed, seconds)
            print(f"{rate:5d} {seed:4d} {busy:6.1f} {outstanding:8d} {str(correct):>8s} "
                  f"{m['calls_per_s']:12.0f} {m['decide_p50_us']:11.2f} "
                  f"{m['decide_p90_us']:11.2f} {m['report_p50_us']:11.2f}", flush=True)


if __name__ == "__main__":
    main()

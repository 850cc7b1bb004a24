#!/usr/bin/env python3
"""Compare a freshly generated BENCH_core.json against bench/thresholds.json.

Usage: tools/check_bench.py BENCH_core.json [thresholds.json]

Failing regression gate: a row pinned in the thresholds file that regresses
past the tolerance makes the script exit 1, so CI fails instead of silently
drifting.  Rows listed in the thresholds' `_warn_only` array (differences of
noisy numbers, machine-sensitive throughput rows) still print a prominent
warning but never fail the run.  Keys missing from the run (e.g. a
filtered-out benchmark) are reported but warn-only, so partial bench runs
stay usable locally.

Rows listed in `_multicore_only` measure parallel speedups or multi-thread
throughput; on a single-core runner they legitimately degenerate (a 0.96x
sweep_speedup on one core is physics, not a regression).  The bench run
records the producing box's core count in the `cores` key of
BENCH_core.json; when it is < 2 (or absent, for runs predating the field),
`_multicore_only` rows are downgraded to warnings instead of failures.

Rows listed in `_optional` may legitimately be absent from a run — the
high-connection sweep points under VIA_BENCH_SWEEP_SCALE=small.  A missing `_optional` row prints an explicit
SKIP line (never a warning); when the row IS present it is checked like any
other (pair it with `_warn_only` to keep it from failing the gate).

Threshold semantics (bench/thresholds.json):
  - keys ending in `_ns` or `_seconds` are lower-is-better; a run is
    flagged when it exceeds the threshold by more than the tolerance.
  - keys ending in `_mops`, `_speedup`, or `_rps` are higher-is-better; a
    run is flagged when it falls short by more than the tolerance.
  - other numeric keys are compared lower-is-better by default — this is
    what memory rows rely on (`scale_peak_rss_mb`, `*_bytes_per_pair` in
    bench/thresholds_scale.json): a run using more memory than baseline
    plus tolerance is flagged.

The default tolerance is 25% either way; a `_tolerance` key in the
thresholds file (fraction, e.g. 0.25) overrides it globally.  After an
intentional performance change, refresh the affected baselines in the same
commit so the gate tracks the new expected cost.
"""

import json
import sys

DEFAULT_TOLERANCE = 0.25
HIGHER_IS_BETTER_SUFFIXES = ("_mops", "_speedup", "_rps")


def is_higher_better(key: str) -> bool:
    # Suffix or infix: throughput rows like reactor_choose_rps_64c carry
    # the unit mid-key with the sweep point trailing.
    return key.endswith(HIGHER_IS_BETTER_SUFFIXES) or any(
        f"{tag}_" in key for tag in HIGHER_IS_BETTER_SUFFIXES
    )


def main(argv: list) -> int:
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__)
        return 2
    bench_path = argv[1]
    thresholds_path = argv[2] if len(argv) == 3 else "bench/thresholds.json"

    try:
        with open(bench_path) as f:
            bench = json.load(f)
        with open(thresholds_path) as f:
            thresholds = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read inputs: {e}", file=sys.stderr)
        return 1

    tolerance = thresholds.get("_tolerance", DEFAULT_TOLERANCE)
    warn_only = set(thresholds.get("_warn_only", []))
    multicore_only = set(thresholds.get("_multicore_only", []))
    optional = set(thresholds.get("_optional", []))
    cores = bench.get("cores")
    single_core = not isinstance(cores, (int, float)) or cores < 2
    if single_core and multicore_only:
        print(
            f"check_bench: cores={cores!r} in {bench_path}; "
            f"{len(multicore_only)} multicore-only row(s) downgraded to warnings"
        )
        warn_only |= multicore_only
    failures = []
    warnings = []
    missing = []
    skipped = []
    checked = 0

    for key, limit in sorted(thresholds.items()):
        if key.startswith("_") or not isinstance(limit, (int, float)):
            continue
        value = bench.get(key)
        if not isinstance(value, (int, float)):
            (skipped if key in optional else missing).append(key)
            continue
        checked += 1
        if is_higher_better(key):
            floor = limit * (1.0 - tolerance)
            if value < floor:
                message = (
                    f"{key}: {value:.4g} < {floor:.4g} "
                    f"(baseline {limit:.4g}, higher is better)"
                )
                (warnings if key in warn_only else failures).append(message)
        else:
            ceiling = limit * (1.0 + tolerance)
            if value > ceiling:
                message = (
                    f"{key}: {value:.4g} > {ceiling:.4g} "
                    f"(baseline {limit:.4g}, lower is better)"
                )
                (warnings if key in warn_only else failures).append(message)

    print(
        f"check_bench: {checked} keys checked against {thresholds_path} "
        f"(tolerance {tolerance:.0%})"
    )
    for key in skipped:
        print(f"check_bench: SKIP (optional row absent from run): {key}")
    for key in missing:
        print(f"check_bench: WARNING: key missing from run: {key}")
    for line in warnings:
        print(f"check_bench: WARNING (warn-only row): {line}")
    if failures:
        print(f"check_bench: FAIL: {len(failures)} regression(s) past tolerance:")
        for line in failures:
            print(f"  {line}")
        print(
            "check_bench: if the slowdown is intentional, refresh "
            "bench/thresholds.json in the same commit; if a row is "
            "inherently noisy, move it to _warn_only."
        )
        return 1
    print("check_bench: all tracked benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

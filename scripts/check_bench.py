#!/usr/bin/env python3
"""Bench-regression gate: diff CI-produced BENCH_*.json against the
checked-in baseline (bench/baseline/).

Fidelity quantities are DETERMINISTIC (every bench runs fixed seeds), so
any drift is a real behavioral change that must be reviewed:

  * cost rows           — `messages` and `rounds` must match exactly;
  * scalar rows         — `value` must match exactly (this covers the
    `verdict` rows — 1.0 = REPRODUCED — plus peak Byzantine fractions,
    capture flags, fitted exponents, wave counts, chi-squared p-values);
  * missing rows/files  — coverage loss, also a hard failure.

Wall-clock quantities (`wall_ns` in cost rows; everything in
BENCH_micro.json, which uses Google Benchmark's schema) vary by machine
and are WARN-ONLY: a row is reported when it slows down by more than
--wall-tolerance (default 1.5x) but never fails the job. For
BENCH_micro.json only the *presence* of each benchmark is enforced.

The examples' CSV outputs (EXAMPLE_*.csv, written next to the binaries by
the example smoke tests) are gated the same way: every cell is a seeded
deterministic quantity (counts, fractions, message totals — never wall
clock), so the files must match the baseline byte for byte; any diff or
missing file is a hard failure.

Usage:
  scripts/check_bench.py --baseline bench/baseline --current build
  scripts/check_bench.py ... --update   # rewrite the baseline from current

Exit status: 0 = clean (warnings allowed), 1 = fidelity regression.
The update procedure is documented in EXPERIMENTS.md ("The bench-regression
gate").
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# Exact comparisons still go through an epsilon to absorb JSON round-trip
# noise on doubles; 1e-9 relative is far below any real change.
REL_EPS = 1e-9


def close(a: float, b: float) -> bool:
    if a == b:
        return True
    if any(x is None for x in (a, b)):
        return False
    return math.isclose(a, b, rel_tol=REL_EPS, abs_tol=1e-12)


def row_key(row: dict) -> tuple:
    return (row.get("op"), row.get("n"))


def load(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


def check_emitter_file(name: str, base: dict, cur: dict, wall_tol: float,
                       errors: list, warnings: list) -> None:
    cur_rows = {row_key(r): r for r in cur.get("results", [])}
    for brow in base.get("results", []):
        key = row_key(brow)
        crow = cur_rows.get(key)
        if crow is None:
            errors.append(f"{name}: row {key} missing from current output")
            continue
        if "value" in brow:  # scalar row
            if not close(brow["value"], crow.get("value")):
                kind = "verdict" if brow["op"] == "verdict" else "scalar"
                errors.append(
                    f"{name}: {kind} row {key} changed "
                    f"{brow['value']} -> {crow.get('value')}")
            continue
        for field in ("messages", "rounds"):
            if not close(brow.get(field), crow.get(field)):
                errors.append(
                    f"{name}: {field} of {key} changed "
                    f"{brow.get(field)} -> {crow.get(field)}")
        bw, cw = brow.get("wall_ns"), crow.get("wall_ns")
        if bw and cw and cw > bw * wall_tol:
            warnings.append(
                f"{name}: wall_ns of {key} {bw:.0f} -> {cw:.0f} "
                f"(> {wall_tol:.2f}x slower; warn-only)")


# Per-batch phase/footprint counters emitted by bench_micro's sharded rows
# (BM_JoinLeaveCycle, BM_HugeBatch). All wall-clock or machine-dependent,
# hence warn-only like real_time — but tracked individually so a drift in
# one phase (plan vs resolve vs stage-1 vs stage-2) is attributed, not
# hidden inside the whole-step time.
MICRO_COUNTERS = ("commit_ns", "plan_ns", "resolve_ns", "stage1_ns",
                  "stage2_ns", "bytes_per_node")


def check_micro_file(name: str, base: dict, cur: dict, wall_tol: float,
                     errors: list, warnings: list) -> None:
    """Google Benchmark schema: wall time is machine-dependent, and the
    per-batch counters depend on the iteration count the framework picked,
    so everything is warn-only except benchmark presence."""
    cur_rows = {b.get("name"): b
                for b in cur.get("benchmarks", [])
                if b.get("run_type") != "aggregate"}
    for bbench in base.get("benchmarks", []):
        if bbench.get("run_type") == "aggregate":
            continue
        bname = bbench.get("name")
        cbench = cur_rows.get(bname)
        if cbench is None:
            errors.append(f"{name}: benchmark '{bname}' missing")
            continue
        bt, ct = bbench.get("real_time"), cbench.get("real_time")
        if bt and ct and ct > bt * wall_tol:
            warnings.append(
                f"{name}: real_time of '{bname}' {bt:.0f} -> {ct:.0f} "
                f"(> {wall_tol:.2f}x slower; warn-only)")
        for counter in MICRO_COUNTERS:
            bv, cv = bbench.get(counter), cbench.get(counter)
            if bv and cv and cv > bv * wall_tol:
                warnings.append(
                    f"{name}: {counter} of '{bname}' {bv:.0f} -> {cv:.0f} "
                    f"(> {wall_tol:.2f}x higher; warn-only)")


# Obs-overhead guard (DESIGN.md §13): the telemetry hooks' cost on the hot
# sharded step is bounded by comparing the obs-on row against the obs-off
# row *within the same run* (same machine, same build — wall-clock noise
# cancels, unlike baseline diffs). Warn-only like every wall-clock check.
OBS_ROW = "BM_JoinLeaveCycleObs/100000/4/manual_time"
OBS_BASELINE_ROW = "BM_JoinLeaveCycle/100000/4/manual_time"
OBS_OVERHEAD_TOLERANCE = 1.03


def check_obs_overhead(name: str, cur: dict, warnings: list) -> None:
    rows = {b.get("name"): b
            for b in cur.get("benchmarks", [])
            if b.get("run_type") != "aggregate"}
    obs_row, base_row = rows.get(OBS_ROW), rows.get(OBS_BASELINE_ROW)
    if obs_row is None or base_row is None:
        return  # presence is enforced against the baseline separately
    obs_t, base_t = obs_row.get("real_time"), base_row.get("real_time")
    if obs_t and base_t and obs_t > base_t * OBS_OVERHEAD_TOLERANCE:
        warnings.append(
            f"{name}: telemetry overhead {obs_t:.0f} vs {base_t:.0f} ns "
            f"(> {(OBS_OVERHEAD_TOLERANCE - 1) * 100:.0f}% budget, "
            f"'{OBS_ROW}' vs '{OBS_BASELINE_ROW}'; warn-only)")


def check_csv_file(name: str, base_path: Path, cur_path: Path,
                   errors: list) -> None:
    """Example CSVs carry no wall-clock columns, so the whole file is a
    deterministic fidelity quantity: compare exactly, line by line."""
    base_lines = base_path.read_text().splitlines()
    cur_lines = cur_path.read_text().splitlines()
    if len(base_lines) != len(cur_lines):
        errors.append(f"{name}: row count changed "
                      f"{len(base_lines)} -> {len(cur_lines)}")
        return
    for lineno, (brow, crow) in enumerate(zip(base_lines, cur_lines), 1):
        if brow != crow:
            errors.append(f"{name}: line {lineno} changed "
                          f"'{brow}' -> '{crow}'")
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baseline",
                        help="directory with the checked-in BENCH_*.json")
    parser.add_argument("--current", default="build",
                        help="directory with the freshly produced files")
    parser.add_argument("--wall-tolerance", type=float, default=1.5,
                        help="warn when wall time exceeds baseline by this "
                             "factor (never fails)")
    parser.add_argument("--update", action="store_true",
                        help="copy current files over the baseline instead "
                             "of diffing")
    args = parser.parse_args()

    baseline_dir = Path(args.baseline)
    current_dir = Path(args.current)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    csv_baselines = sorted(baseline_dir.glob("EXAMPLE_*.csv"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines under {baseline_dir}",
              file=sys.stderr)
        return 1

    if args.update:
        for bpath in baselines + csv_baselines:
            cpath = current_dir / bpath.name
            if not cpath.exists():
                print(f"error: cannot update {bpath.name}: "
                      f"{cpath} does not exist", file=sys.stderr)
                return 1
            bpath.write_text(cpath.read_text())
            print(f"updated {bpath} from {cpath}")
        return 0

    errors: list = []
    warnings: list = []
    for bpath in baselines:
        cpath = current_dir / bpath.name
        if not cpath.exists():
            errors.append(f"{bpath.name}: not produced by this run "
                          f"({cpath} missing)")
            continue
        base, cur = load(bpath), load(cpath)
        if "benchmarks" in base:
            check_micro_file(bpath.name, base, cur, args.wall_tolerance,
                             errors, warnings)
            check_obs_overhead(bpath.name, cur, warnings)
        else:
            check_emitter_file(bpath.name, base, cur, args.wall_tolerance,
                               errors, warnings)
    for bpath in csv_baselines:
        cpath = current_dir / bpath.name
        if not cpath.exists():
            errors.append(f"{bpath.name}: not produced by this run "
                          f"({cpath} missing)")
            continue
        check_csv_file(bpath.name, bpath, cpath, errors)

    for w in warnings:
        print(f"warning: {w}")
    if errors:
        print(f"\n{len(errors)} fidelity regression(s) against "
              f"{baseline_dir}:", file=sys.stderr)
        for e in errors:
            print(f"  FAIL {e}", file=sys.stderr)
        print("\nIf the change is intentional, regenerate the baseline "
              "(EXPERIMENTS.md, 'The bench-regression gate'):\n"
              "  scripts/check_bench.py --baseline bench/baseline "
              "--current build --update", file=sys.stderr)
        return 1
    print(f"bench gate: {len(baselines) + len(csv_baselines)} file(s) "
          f"match the baseline ({len(warnings)} wall-time warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())

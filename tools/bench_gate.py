#!/usr/bin/env python3
"""Perf regression gate over BENCH_*.json (JSONL) records.

Compares a freshly measured records file against the checked-in baseline and
fails (exit 1) when any gated benchmark regressed by more than the allowed
fraction.  Records are keyed on (suite, bench, impl) for
dedup — when a file holds several records for one key (append-mode reruns)
the LAST one wins, the files being append-only logs — and gated by
(suite, bench): a gated bench is expected to have one impl per file.

A record names the field it is gated on and that field's direction, e.g.
"metric":"goodput_tu","better":"higher"; a record without them is gated on
ns_per_op, lower is better.  A lower-is-better metric regresses when
fresh/base - 1 exceeds the threshold, a higher-is-better one when
base/fresh - 1 does.

By default the gate covers the simulator suite's full_server_* benches
(BENCH_hot_path.json).  `--suite rt` / `--suite workload` gate the
real-time runtime's (BENCH_rt.json) and arrival-layer's
(BENCH_workload.json) records instead: every bench present in the baseline
for that suite is gated, so committing a baseline record is what arms its
gate.  A bench present only in the fresh records (a new bench measured
against an older baseline) is reported as "new record" and skipped rather
than crashing or failing — commit the refreshed baseline to arm it.

Usage:
  tools/bench_gate.py fresh.json baseline.json \
      --bench full_server_load60 [--bench three_class ...] \
      [--suite simulator] [--threshold 25]
"""

import argparse
import json
import sys


def load_records(path):
    records = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}: bad JSONL line: {err}\n  {line}")
            key = (rec.get("suite"), rec.get("bench"), rec.get("impl"))
            records[key] = rec  # last record wins
    return records


def gated_metric(rec):
    """(field, direction) a record is gated on."""
    better = rec.get("better", "lower")
    if better not in ("lower", "higher"):
        raise SystemExit(f"{rec.get('bench')}: unknown direction {better!r}")
    return rec.get("metric", "ns_per_op"), better


def regression(fresh, base, better):
    """Fractional regression of `fresh` against `base`; > 0 is worse."""
    worse, best = (fresh, base) if better == "lower" else (base, fresh)
    if best <= 0.0:
        return 0.0 if worse <= 0.0 else float("inf")
    return worse / best - 1.0


def write_summary_md(path, suite, allowed, rows):
    """Append a bench-delta markdown table (the $GITHUB_STEP_SUMMARY shape).

    Append, not truncate: several gate invocations (one per suite) share one
    summary file in CI.
    """

    def fmt_value(v):
        return f"{float(v):.6g}" if v is not None else "—"

    def fmt_delta(d):
        return f"{d:+.1%}" if d is not None else "—"

    badge = {"OK": "✅", "REGRESSED": "❌", "new": "🆕", "missing": "❌"}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"### Bench gate: `{suite}` (threshold {allowed:.0%})\n\n")
        fh.write("| bench | metric | fresh | baseline | regression | |\n")
        fh.write("|---|---|---:|---:|---:|---|\n")
        for bench, metric, fresh, base, delta, verdict in rows:
            fh.write(
                f"| `{bench}` | {metric} | {fmt_value(fresh)} "
                f"| {fmt_value(base)} | {fmt_delta(delta)} "
                f"| {badge.get(verdict, verdict)} {verdict} |\n"
            )
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="just-measured records file")
    ap.add_argument("baseline", help="checked-in baseline records file")
    ap.add_argument(
        "--suite",
        default="simulator",
        help="suite whose records to gate (default: simulator)",
    )
    ap.add_argument(
        "--bench",
        action="append",
        default=[],
        help="bench name to gate (repeatable); default: all of the "
        "baseline's full_server_* benches for the simulator suite, every "
        "baseline bench for any other suite",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="allowed regression in PERCENT (default 25)",
    )
    ap.add_argument(
        "--max-regress",
        type=float,
        default=None,
        help="legacy spelling: allowed fractional regression (0.25 == "
        "--threshold 25); wins over --threshold when both are given",
    )
    ap.add_argument(
        "--summary-md",
        default=None,
        metavar="PATH",
        help="append a markdown bench-delta table to PATH (pass "
        '"$GITHUB_STEP_SUMMARY" in CI for a per-run report)',
    )
    args = ap.parse_args()

    allowed = (
        args.max_regress if args.max_regress is not None
        else args.threshold / 100.0
    )

    fresh = load_records(args.fresh)
    base = load_records(args.baseline)

    def in_suite(key):
        return key[0] == args.suite

    if args.bench:
        gated = args.bench
    elif args.suite == "simulator":
        # Back-compat: the hot-path file carries sampling-layer records the
        # gate has never covered; only the end-to-end benches are gated.
        gated = sorted(
            {k[1] for k in base if in_suite(k) and k[1].startswith("full_server")}
        )
    else:
        # Union of baseline and fresh: baseline-only benches fail (a gated
        # bench vanished), fresh-only benches are announced and skipped (a
        # new bench vs an old baseline must not crash the gate).
        gated = sorted(
            {k[1] for k in base if in_suite(k)}
            | {k[1] for k in fresh if in_suite(k)}
        )
    if not gated:
        raise SystemExit(
            f"no benches to gate (no {args.suite} records in either file)"
        )

    failures = []
    rows = []  # (bench, metric, fresh, base, regression, verdict)
    for bench in gated:
        fresh_rec = next(
            (r for k, r in fresh.items() if k[1] == bench and in_suite(k)),
            None,
        )
        base_rec = next(
            (r for k, r in base.items() if k[1] == bench and in_suite(k)),
            None,
        )
        if base_rec is None:
            print(f"[gate] {bench}: new record, skipping (no baseline yet)")
            metric = gated_metric(fresh_rec)[0] if fresh_rec else "ns_per_op"
            value = fresh_rec.get(metric) if fresh_rec else None
            rows.append((bench, metric, value, None, None, "new"))
            continue
        metric, better = gated_metric(base_rec)
        if fresh_rec is None:
            failures.append(f"{bench}: missing from fresh records")
            rows.append((bench, metric, None, base_rec.get(metric), None,
                         "missing"))
            continue
        if gated_metric(fresh_rec) != (metric, better):
            failures.append(
                f"{bench}: fresh record gates {gated_metric(fresh_rec)}, "
                f"baseline {(metric, better)}; refresh the baseline"
            )
            continue
        try:
            fresh_v = float(fresh_rec[metric])
            base_v = float(base_rec[metric])
        except (KeyError, TypeError, ValueError):
            failures.append(f"{bench}: record lacks a numeric {metric}")
            continue
        worse = regression(fresh_v, base_v, better)
        verdict = "OK" if worse <= allowed else "REGRESSED"
        print(
            f"[gate] {bench}: {metric} {fresh_v:.6g} vs baseline "
            f"{base_v:.6g} ({better} is better, regression {worse:+.1%}) "
            f"{verdict}"
        )
        rows.append((bench, metric, fresh_v, base_v, worse, verdict))
        if verdict != "OK":
            failures.append(
                f"{bench}: {metric} {fresh_v:.6g} vs {base_v:.6g} baseline "
                f"(> {allowed:.0%} regression)"
            )

    if args.summary_md:
        write_summary_md(args.summary_md, args.suite, allowed, rows)

    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

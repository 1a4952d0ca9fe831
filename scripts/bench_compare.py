#!/usr/bin/env python3
"""Perf-regression gate over the merged bench-JSON artifact.

Compares a freshly produced BENCH_phase3.json (the `ctest -L perf` smoke
writes one per run) against the committed baseline in bench/baseline.json
and fails when any *gated* benchmark regresses past the threshold. Every
other shared metric is reported informationally — the gate only bites on
the benches whose shape IS the contract (view reads must stay micro-scale,
maintenance must stay bounded) so runner noise on incidental benches
cannot flake the lane.

Usage:
  scripts/bench_compare.py --current build/BENCH_phase3.json \
      --baseline bench/baseline.json [--report build/bench_diff.md] \
      [--threshold 2.0] [--update]

Exit status: 0 when every gated bench is within threshold, 1 on any gated
regression or a gated bench missing from either side. --update rewrites
the baseline from the current artifact instead of comparing (use after an
intentional perf change, then commit the new baseline).

Each artifact records the host that produced it (`host`: nproc, build
type, compiler). When the baseline's host and the current run's differ,
the report says so above the table: the ratios then compare two machines,
not two commits. The notice changes no threshold and no exit status.
"""

import argparse
import json
import sys

# The gated set: (section, benchmark) pairs whose regression fails CI.
# BM_ViewReadAtScale decaying toward BM_GroupByLevelAtScale would mean
# view reads silently fell back to recompute; BM_InsertFactMaintenance/1
# bounds the write-side price of keeping the views fresh.
GATED = [
    ("bench_micro_olap", "BM_ViewReadAtScale/1000"),
    ("bench_micro_olap", "BM_ViewReadAtScale/10000"),
    ("bench_micro_olap", "BM_GroupByLevelAtScale/1000"),
    ("bench_micro_olap", "BM_GroupByLevelAtScale/10000"),
    ("bench_micro_olap", "BM_InsertFactMaintenance/0"),
    ("bench_micro_olap", "BM_InsertFactMaintenance/1"),
    # The Step-5 BI analysis end to end, read from views, recomputed and
    # federated: joining rendered rows on strings again would show here.
    # The federated read is gated twice: after a member changed (no
    # stored read matches, so the read plans, resolving conflicts, then
    # fans out and merges) and while none did (the engine's stored plan
    # and answer, read in place — re-planning, copying or re-merging per
    # read would show).
    ("bench_micro_olap", "BM_SalesVsTemperatureView"),
    ("bench_micro_olap", "BM_SalesVsTemperatureRecompute"),
    ("bench_micro_olap", "BM_SalesVsTemperatureFederated"),
    ("bench_micro_olap", "BM_SalesVsTemperatureFederatedReused"),
    ("bench_recovery", "cold_replay_200_ms"),
    # Federated answering decaying toward (or past) the merged-oracle cost
    # would mean the fan-out/merge path lost its reason to exist.
    ("bench_federation", "oracle_query_mean_ms"),
    ("bench_federation", "fed_chaos_0%_mean_ms"),
    # IR-n passage search (the live ask's retrieval step) drifting back
    # toward per-window rescans would show here first: the paper's
    # 8-sentence window, and the merged-segment passage query at 10k docs.
    ("bench_micro_ir", "BM_PassageSearchWindow/8"),
    ("bench_micro_ir", "BM_SegmentedMergedQueryPassage/10000"),
    # The live ask's own retrieval: every ask-pool query over the full
    # synthetic web. Decoding the refs of documents the bound prunes
    # would show here.
    ("bench_micro_ir", "BM_PassageSearchAskPool"),
    # Answer extraction on the live path (one prepared question, cached
    # sentence analyses) drifting back toward per-candidate re-derivation.
    ("bench_micro_qa", "BM_AnswerExtraction"),
    # All of the live extraction step, Rank and the answers' source strings
    # included: re-running the recognizers per ask, or copying the source
    # strings of every candidate instead of the kept answers', would show.
    ("bench_micro_qa", "BM_AnswerExtractionRanked"),
]

HOST_FIELDS = ("nproc", "build_type", "compiler")

# Everything normalises to seconds before the ratio so a unit change in a
# bench (ns -> us) cannot masquerade as a 1000x regression.
UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load(path):
    """Returns (host, benchmarks); a host field the file lacks is
    "unknown"."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "dwqa-bench-v1":
        raise ValueError(f"{path}: unexpected schema {doc.get('schema')!r}")
    recorded = doc.get("host", {})
    host = {field: recorded.get(field, "unknown") for field in HOST_FIELDS}
    return host, doc.get("benchmarks", {})


def describe(host):
    return ", ".join(f"{field} {host[field]}" for field in HOST_FIELDS)


def host_notice(current_host, baseline_host):
    """The report lines saying the two artifacts come from different
    hosts (none when they match)."""
    if current_host == baseline_host:
        return []
    return [f"**Host differs.** Baseline: {describe(baseline_host)}. "
            f"This run: {describe(current_host)}. The ratios compare "
            "different machines, not only different commits.", ""]


def seconds(metric):
    scale = UNIT_SECONDS.get(metric.get("unit"))
    if scale is None:
        return None
    return float(metric["value"]) * scale


def fmt(metric):
    return f"{metric['value']:.3f} {metric.get('unit', '?')}"


def compare(current, baseline, threshold):
    """Returns (rows, failures). Each row is a markdown table line."""
    rows = []
    failures = []
    gated_set = set(GATED)
    pairs = []
    for section in sorted(set(current) | set(baseline)):
        names = set(current.get(section, {})) | set(baseline.get(section, {}))
        pairs.extend((section, name) for name in sorted(names))
    # Gated benches first, in their declared order.
    pairs.sort(key=lambda p: (p not in gated_set, p))

    for section, name in pairs:
        gated = (section, name) in gated_set
        cur = current.get(section, {}).get(name)
        base = baseline.get(section, {}).get(name)
        label = f"`{section}/{name}`"
        if cur is None or base is None:
            side = "current" if cur is None else "baseline"
            status = "MISSING"
            if gated:
                failures.append(
                    f"{section}/{name}: gated bench missing from {side} "
                    "(run scripts/bench_compare.py --update after an "
                    "intentional bench change)")
            rows.append(f"| {label} | {fmt(base) if base else '—'} "
                        f"| {fmt(cur) if cur else '—'} | — | {status}"
                        f"{' (gated)' if gated else ''} |")
            continue
        cur_s, base_s = seconds(cur), seconds(base)
        if cur_s is None or base_s is None or base_s <= 0.0:
            rows.append(f"| {label} | {fmt(base)} | {fmt(cur)} | — | "
                        "not comparable |")
            continue
        ratio = cur_s / base_s
        ok = ratio <= threshold
        status = "ok" if ok else f"REGRESSION >{threshold:g}x"
        if gated:
            status += " (gated)"
            if not ok:
                failures.append(
                    f"{section}/{name}: {fmt(base)} -> {fmt(cur)} "
                    f"({ratio:.2f}x, threshold {threshold:g}x)")
        rows.append(f"| {label} | {fmt(base)} | {fmt(cur)} | "
                    f"{ratio:.2f}x | {status} |")
    return rows, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="fresh BENCH_phase3.json from the perf smoke")
    parser.add_argument("--baseline", required=True,
                        help="committed bench/baseline.json")
    parser.add_argument("--report", default=None,
                        help="write the markdown diff table here")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail gated benches above current/baseline "
                             "ratio (default 2.0)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from --current instead "
                             "of comparing")
    args = parser.parse_args()

    current_host, current = load(args.current)
    if args.update:
        doc = {"schema": "dwqa-bench-v1", "host": current_host,
               "benchmarks": current}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"bench_compare: baseline rewritten at {args.baseline}")
        return 0

    baseline_host, baseline = load(args.baseline)
    rows, failures = compare(current, baseline, args.threshold)

    lines = ["# Bench diff vs committed baseline", ""]
    lines += host_notice(current_host, baseline_host)
    lines += [f"Threshold: gated benches fail above {args.threshold:g}x.", "",
              "| bench | baseline | current | ratio | status |",
              "|---|---|---|---|---|"]
    lines += rows
    lines.append("")
    if failures:
        lines.append("## Gated regressions")
        lines.extend(f"- {f}" for f in failures)
    else:
        lines.append("All gated benches within threshold.")
    report = "\n".join(lines) + "\n"
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)

    if failures:
        print(f"bench_compare: {len(failures)} gated failure(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

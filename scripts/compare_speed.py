"""Compare two source checkouts' end-to-end metrics on one benchmark workload.

    python3 scripts/compare_speed.py OLD_CHECKOUT NEW_CHECKOUT --workload W \\
        --seed S --pairs N --seconds T
    python3 scripts/compare_speed.py ../base . --workload ingest_correlate \\
        --seed 13 --pairs 10 --seconds 25

Runs N pairs of ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, one run in each checkout per pair, alternating which checkout
goes first: old first in pairs 1, 3, ..., new first in pairs 2, 4, ....
Prints each pair's end-to-end metrics (those NEW_CHECKOUT's BENCHMARK.json
declares), then for each metric each side's median and quartiles, the
number of pairs the change wins (ties count for neither) and whether a gain
may be claimed: the change wins at least nine tenths of the pairs and the
medians differ by more than the old side's interquartile range. Exits 1 if
a run fails or reports a failed check; 0 otherwise. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict[str, float], str]:
    """(metric -> value, error text) of one untraced harness run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    summary = next(
        (json.loads(line) for line in reversed(proc.stdout.splitlines()) if line.startswith("{")),
        None,
    )
    if proc.returncode != 0 or summary is None or not summary["correct"]:
        return {}, (proc.stderr.strip() or proc.stdout.strip())[-400:] or "no summary line"
    return {name: m["value"] for name, m in summary["metrics"].items()}, ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the checkout to compare against")
    parser.add_argument("new", type=Path, help="the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so each side has quartiles")
    declared = json.loads((args.new / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in declared}

    values: dict[str, dict[str, list[float]]] = {"old": {}, "new": {}}
    failed = 0
    for pair in range(1, args.pairs + 1):
        order = ("old", "new") if pair % 2 else ("new", "old")
        got: dict[str, dict[str, float]] = {}
        for side in order:
            got[side], error = run(getattr(args, side), args.workload, args.seed, args.seconds)
            if error:
                failed += 1
                print(f"pair {pair} {side} run FAILED: {error}")
        if not all(got.values()):
            continue
        for side in order:
            for name in lower_is_better:
                values[side].setdefault(name, []).append(got[side][name])
        print(f"pair {pair} ({order[0]} first) " + "  ".join(
            f"{name} {got['old'][name]:.4f} -> {got['new'][name]:.4f}" for name in lower_is_better
        ))
        sys.stdout.flush()

    for name, lower in lower_is_better.items():
        old, new = values["old"].get(name, []), values["new"].get(name, [])
        if len(old) < 2:
            print(f"{name}: fewer than two complete pairs")
            continue
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        beyond_spread = abs(nm - om) > o3 - o1 and (nm < om) == lower
        claim = wins * 10 >= 9 * args.pairs and beyond_spread
        print(
            f"{name}: old median {om:.4f} (q1 {o1:.4f}, q3 {o3:.4f}); "
            f"new median {nm:.4f} (q1 {n1:.4f}, q3 {n3:.4f}); "
            f"change {100.0 * (nm - om) / om:+.1f} %; new wins {wins} of {args.pairs}; "
            f"gain {'may' if claim else 'may not'} be claimed"
        )
    print(f"{failed} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

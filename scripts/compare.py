"""Compare two source checkouts on the benchmark: output hashes, or speed.

    python3 scripts/compare.py hashes OLD_CHECKOUT NEW_CHECKOUT [--seeds 1-5] \\
        [--workload W ...]
    python3 scripts/compare.py speed OLD_CHECKOUT NEW_CHECKOUT --seed S \\
        [--pairs N] --seconds T [--workload W ...]

Both modes run ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in each checkout, for each workload given with ``--workload``
(it may be repeated; default: every workload NEW_CHECKOUT's BENCHMARK.json
declares).

``hashes`` runs each workload and seed once per checkout, old then new, at
``--seconds 0``, and prints the ``sha256`` of every output file the harness
hashes and the run's ``peak_rss_mb`` side by side. At ``--seconds 0`` each
run makes the harness's minimum number of calls, so the two peak RSS
figures are taken at equal call counts. Exits 1 if any hash differs, is
missing on one side, or a run fails.

``speed`` runs N pairs per workload, one run in each checkout per pair,
alternating which checkout goes first: old first in pairs 1, 3, ..., new
first in pairs 2, 4, .... It prints each pair's end-to-end metrics (those
NEW_CHECKOUT's BENCHMARK.json declares), then for each metric each side's
median and quartiles, the number of pairs the change wins (ties count for
neither) and whether a gain may be claimed: the change wins at least nine
tenths of the pairs and the medians differ by more than the old side's
interquartile range. Exits 1 if a run fails.

A run fails when it exits non-zero, prints no summary line, or its summary
reports a failed check. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Run:
    """What one harness run printed: each hashed file's sha256, the
    end-to-end and per-layer metric values, and an error text (empty if the
    run succeeded)."""

    hashes: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    error: str = ""


def run(checkout: Path, workload: str, seed: int, seconds: float) -> Run:
    """Start one untraced ``perfbench/run.py`` in ``checkout`` and parse its
    output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    result = Run()
    summary = None
    for line in proc.stdout.splitlines():
        if line.startswith("sha256 "):
            _, _, _, name, digest = line.split()
            result.hashes[name] = digest
        elif line.startswith("{"):
            summary = json.loads(line)
    if summary is not None:
        result.metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    if proc.returncode != 0 or summary is None or not summary["correct"]:
        result.error = (proc.stderr.strip() or proc.stdout.strip())[-400:] or "no summary line"
    return result


def parse_seeds(text: str) -> list[int]:
    """``1-5`` -> [1, 2, 3, 4, 5]; ``1,3,7-8`` -> [1, 3, 7, 8]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare_hashes(args: argparse.Namespace, workloads: list[str]) -> int:
    compared = differing = failed = 0
    for workload in workloads:
        for seed in args.seeds:
            old, new = (run(checkout, workload, seed, 0) for checkout in (args.old, args.new))
            for side, result in (("old", old), ("new", new)):
                if result.error:
                    failed += 1
                    print(f"{workload} seed={seed} {side} run FAILED: {result.error}")
            for name in sorted(old.hashes.keys() | new.hashes.keys()):
                a, b = old.hashes.get(name, "-"), new.hashes.get(name, "-")
                same = a == b and a != "-"
                compared += 1
                differing += not same
                print(f"{workload} seed={seed} {name} {a[:16]} {b[:16]} "
                      f"{'same' if same else 'DIFFERS'}")
            a, b = old.metrics.get("peak_rss_mb"), new.metrics.get("peak_rss_mb")
            if a is not None and b is not None:
                print(f"{workload} seed={seed} peak_rss_mb {a:.2f} {b:.2f} "
                      f"({100.0 * (b - a) / a:+.1f} %)")
            sys.stdout.flush()
    print(f"{compared} hashes compared, {differing} differ, {failed} runs failed")
    return 1 if differing or failed else 0


def compare_speed(args: argparse.Namespace, workloads: list[str]) -> int:
    declared = json.loads((args.new / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in declared}
    failed = 0
    for workload in workloads:
        values: dict[str, dict[str, list[float]]] = {"old": {}, "new": {}}
        for pair in range(1, args.pairs + 1):
            order = ("old", "new") if pair % 2 else ("new", "old")
            got: dict[str, dict[str, float]] = {}
            for side in order:
                result = run(getattr(args, side), workload, args.seed, args.seconds)
                got[side] = {} if result.error else result.metrics
                if result.error:
                    failed += 1
                    print(f"{workload} pair {pair} {side} run FAILED: {result.error}")
            if not all(got.values()):
                continue
            for side in order:
                for name in lower_is_better:
                    values[side].setdefault(name, []).append(got[side][name])
            print(f"{workload} pair {pair} ({order[0]} first) " + "  ".join(
                f"{name} {got['old'][name]:.4f} -> {got['new'][name]:.4f}"
                for name in lower_is_better
            ))
            sys.stdout.flush()

        for name, lower in lower_is_better.items():
            old, new = values["old"].get(name, []), values["new"].get(name, [])
            if len(old) < 2:
                print(f"{workload} {name}: fewer than two complete pairs")
                continue
            (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
            wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
            beyond_spread = abs(nm - om) > o3 - o1 and (nm < om) == lower
            claim = wins * 10 >= 9 * args.pairs and beyond_spread
            print(
                f"{workload} {name}: old median {om:.4f} (q1 {o1:.4f}, q3 {o3:.4f}); "
                f"new median {nm:.4f} (q1 {n1:.4f}, q3 {n3:.4f}); "
                f"change {100.0 * (nm - om) / om:+.1f} %; new wins {wins} of {args.pairs}; "
                f"gain {'may' if claim else 'may not'} be claimed"
            )
    print(f"{failed} runs failed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    hashes = modes.add_parser("hashes", help="compare output hashes and peak RSS")
    hashes.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    speed = modes.add_parser("speed", help="compare end-to-end metrics over paired runs")
    speed.add_argument("--seed", type=int, required=True)
    speed.add_argument("--pairs", type=int, default=10)
    speed.add_argument("--seconds", type=float, required=True)
    for mode in (hashes, speed):
        mode.add_argument("old", type=Path, help="the checkout to compare against")
        mode.add_argument("new", type=Path, help="the checkout under test")
        mode.add_argument("--workload", action="append",
                          help="a workload to run; repeat for more (default: all declared)")
    args = parser.parse_args(argv)
    if args.mode == "speed" and args.pairs < 2:
        parser.error("--pairs must be at least 2, so each side has quartiles")
    workloads = args.workload or [
        w["name"]
        for w in json.loads((args.new / "BENCHMARK.json").read_text("utf-8"))["workloads"]
    ]
    if args.mode == "hashes":
        return compare_hashes(args, workloads)
    return compare_speed(args, workloads)


if __name__ == "__main__":
    sys.exit(main())

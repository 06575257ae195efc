"""Compare two source checkouts on the benchmark: output hashes and peak RSS.

    python3 scripts/compare_hashes.py OLD_CHECKOUT NEW_CHECKOUT [--seeds 1-5]
    python3 scripts/compare_hashes.py ../base . --seeds 1,3 --workloads ingest_correlate

For every workload that NEW_CHECKOUT's BENCHMARK.json declares (or those
given with ``--workloads``) and every seed, runs
``perfbench/run.py --workload W --seed S --seconds 0 --trace 0`` in each
checkout, old then new, and prints the ``sha256`` of every output file the
harness hashes and the run's ``peak_rss_mb`` side by side. At ``--seconds 0``
each run makes the harness's minimum number of calls, so the two peak RSS
figures are taken at equal call counts. Exits 1 if any hash differs, is
missing on one side, or a run fails; 0 otherwise. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``1-5`` -> [1, 2, 3, 4, 5]; ``1,3,7-8`` -> [1, 3, 7, 8]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run(checkout: Path, workload: str, seed: int) -> tuple[dict[str, str], float | None, str]:
    """(file -> sha256, peak_rss_mb or None, error text) of one harness run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    hashes: dict[str, str] = {}
    rss = None
    for line in proc.stdout.splitlines():
        if line.startswith("sha256 "):
            _, _, _, name, digest = line.split()
            hashes[name] = digest
        elif line.startswith("{"):
            rss = json.loads(line)["metrics"]["peak_rss_mb"]["value"]
    error = "" if proc.returncode == 0 else (proc.stderr.strip() or proc.stdout.strip())[-400:]
    return hashes, rss, error


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the checkout to compare against")
    parser.add_argument("new", type=Path, help="the checkout under test")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    parser.add_argument("--workloads", help="comma-separated names (default: all declared)")
    args = parser.parse_args(argv)
    if args.workloads:
        workloads = args.workloads.split(",")
    else:
        declared = json.loads((args.new / "BENCHMARK.json").read_text("utf-8"))
        workloads = [w["name"] for w in declared["workloads"]]

    compared = differing = failed = 0
    for workload in workloads:
        for seed in args.seeds:
            old_hashes, old_rss, old_error = run(args.old, workload, seed)
            new_hashes, new_rss, new_error = run(args.new, workload, seed)
            for side, error in (("old", old_error), ("new", new_error)):
                if error:
                    failed += 1
                    print(f"{workload} seed={seed} {side} run FAILED: {error}")
            for name in sorted(old_hashes.keys() | new_hashes.keys()):
                old, new = old_hashes.get(name, "-"), new_hashes.get(name, "-")
                same = old == new and old != "-"
                compared += 1
                differing += not same
                print(f"{workload} seed={seed} {name} {old[:16]} {new[:16]} "
                      f"{'same' if same else 'DIFFERS'}")
            if old_rss is not None and new_rss is not None:
                change = 100.0 * (new_rss - old_rss) / old_rss
                print(f"{workload} seed={seed} peak_rss_mb {old_rss:.2f} {new_rss:.2f} "
                      f"({change:+.1f} %)")
            sys.stdout.flush()
    print(f"{compared} hashes compared, {differing} differ, {failed} runs failed")
    return 1 if differing or failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of textmath's experiment grid, end to end and per layer.

    python3 perfbench/run.py --workload grid_tfidf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each workload generates one input from ``--seed`` (synthetic
corpus markup, manifest, lexicon and experiment config, under
``.bench_work/``), then calls ``textmath.cli.run_experiment`` on it for
about ``--seconds`` seconds and checks every call's outputs. The process
runs one workload with one BLAS thread.

With ``--trace 0`` the metrics are end to end: median seconds per
``run_experiment`` call, median seconds per set-up of the input (repeated
several times) and peak resident memory. With ``--trace 1`` untraced and
traced calls alternate, and the metrics are per-layer self times and exact
counts from ``spans.py`` plus the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` counts grid cells (classification
+ clustering cells + correlation pairs) over all calls and ``failed`` the
cells that recorded an error, so failed/attempted is the cell error ratio,
also printed on its own line. ``--workload all`` runs every workload in its
own process and prints one summary line each. The exit code is 0 only when
every check passed.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = ["run_s", "setup_s", "peak_rss_mb"]
# Before an untraced call the input is set up again, for at least this long,
# so set-up is timed across the whole run as the calls are (the CPU's speed
# changes in phases of a second or two). A batch is skipped while set-ups
# already took more than SETUP_SHARE of the time spent in calls.
SETUP_BATCH_SECONDS = 0.3
SETUP_SHARE = 0.1
MIN_CALLS = 2  # so every run compares a repeated call's outputs


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_benchmark() -> None:
    """Put ``src/`` and this directory on the path and import the package
    and the benchmark's modules, with BLAS limited before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "textmath" / "__init__.py").is_file():
        raise SetupError(f"textmath sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import textmath

    if Path(textmath.__file__).resolve().parent != (SRC / "textmath").resolve():
        raise SetupError(f"imported textmath from {textmath.__file__}, not from {SRC}")
    import spans  # noqa: F401
    import workloads  # noqa: F401


def check_declared_metrics() -> None:
    """BENCHMARK.json and this code must name the same metrics."""
    import spans
    from workloads import WORKLOADS

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text("utf-8"))
    pairs = [
        ("workloads", [w["name"] for w in declared["workloads"]], list(WORKLOADS)),
        ("end_to_end", [m["name"] for m in declared["end_to_end"]], END_TO_END),
        ("per_layer", [m["name"] for m in declared["per_layer"]], [m[0] for m in spans.METRICS]),
    ]
    for key, names, ours in pairs:
        if sorted(names) != sorted(ours):
            raise SetupError(f"BENCHMARK.json {key} {sorted(names)} != benchmark's {sorted(ours)}")


def environment(seed: int) -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "textmath").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def read_report(path: Path) -> dict[str, dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return {row["encoding"]: row for row in csv.DictReader(fh)}


def _number(text: str) -> float:
    return float(text) if text else math.nan


def quality_floors(out: Path, workload) -> list[str]:
    """Score floors after tests/test_acceptance.py. Every expected report row
    is there; text tf-idf and text embeddings separate the classes;
    identifier-only rows stay within 4 sigma of chance; text k-means purity
    is high.

    The text tf-idf floor is a best cell of 75 %, not 90 %: folds are not
    stratified, so with few documents per class a class can land wholly in
    one test fold and cannot be predicted there (one such class costs 1/7).
    The text embedding floor is a row mean above chance plus the band.
    """
    failures = []
    chance = 1.0 / workload.n_classes
    band = 4.0 * math.sqrt(chance * (1.0 - chance) / (workload.n_classes * workload.docs_per_class))
    reports = {
        "report_classification.csv": workload.classification_rows(),
        "report_clustering.csv": workload.clustering_rows(),
    }
    rows = {}
    for name, expected in reports.items():
        path = out / name
        rows[name] = read_report(path) if path.is_file() else {}
        missing = [row for row in expected if row not in rows[name]]
        if missing:
            failures.append(f"{name} lacks rows {missing}")
    for name, row in rows["report_classification.csv"].items():
        mean = _number(row["Mean"]) / 100.0
        if name == "text_tfidf" and not (_number(row["Max"]) >= 75.0 and mean >= 0.5):
            failures.append(f"text_tfidf row max {row['Max']} / mean {row['Mean']} below 75 / 50")
        if name == "text_embedding" and not mean >= chance + band:
            failures.append(f"text_embedding row mean {mean:.4f} below {chance:.4f}+{band:.4f}")
        if name.startswith("math_id_") and not abs(mean - chance) <= band:
            failures.append(f"{name} row mean {mean:.4f} outside {chance:.4f}+-{band:.4f}")
    text = rows["report_clustering.csv"].get("text_tfidf")
    if text is not None and "kmeans" in text and not _number(text["kmeans"]) >= 80.0:
        failures.append(f"text_tfidf kmeans purity {text['kmeans']} below 80")
    return failures


class Checker:
    """Checks each call's outputs; later calls must repeat the first's bytes."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.failures: list[str] = []
        self.hashes: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, out: Path) -> None:
        record = json.loads((out / "run_record.json").read_text("utf-8"))
        self.attempted += self.workload.cells_per_run()
        self.failed += len(record["cell_errors"])
        missing = [name for name in record["files"] if not (out / name).is_file()]
        if missing:
            self.failures.append(f"listed but missing: {missing[:5]}")
        if record["cell_errors"]:
            self.failures.append(f"cell errors {record['cell_errors'][:3]}")
        names = sorted(p.name for p in out.glob("report_*.csv")) + ["correlations.csv"]
        hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
        if self.hashes is None:
            self.hashes = hashes
            self.failures.extend(quality_floors(out, self.workload))
        elif hashes != self.hashes:
            self.failures.append("outputs differ between calls on the same input")


def set_up_timed(workload, seed: int, directory: Path, sections: list[tuple[float, float]]):
    """Set the input up in a fresh ``directory``; appends (start, end)."""
    from workloads import set_up

    shutil.rmtree(directory, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    result = set_up(workload, seed, directory)
    sections.append((t0, time.perf_counter()))
    return result


def measure(args, workload, work: Path, checker: Checker) -> dict:
    """Set up the seed's input, then call run_experiment on it for about
    ``args.seconds`` seconds of calls, at least ``MIN_CALLS`` times.
    Untraced runs set the input up again between calls.

    Set-up and call times are scaled by the CPU speed that ``speed.Sampler``
    sees during them. Traced runs pair each untraced call with a traced call;
    their per-layer self times are wall seconds."""
    import spans
    import speed
    from textmath import cli
    from workloads import input_size

    tracer = spans.Tracer() if args.trace else None
    sampler = speed.Sampler()
    calls: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    layers: list[dict[str, float]] = []
    span_log = []
    spent = 0.0
    step = 0.0

    setups: list[tuple[float, float]] = []
    with sampler:
        config, corpus = set_up_timed(workload, args.seed, work / "input", setups)
        # Start another call while it would most likely end before
        # ``seconds`` plus half a call, so a run measures about ``seconds``.
        while len(calls) < MIN_CALLS or spent + step / 2 <= args.seconds:
            if tracer is None:
                order = [False]
                if sum(b - a for a, b in setups) <= SETUP_SHARE * spent:
                    batch_end = time.perf_counter() + SETUP_BATCH_SECONDS
                    while time.perf_counter() < batch_end:
                        set_up_timed(workload, args.seed, work / "again", setups)
            else:
                # Alternate which call of a pair goes first, so drift in
                # machine speed does not bias the overhead.
                order = [False, True] if len(calls) % 2 == 0 else [True, False]
            step = 0.0
            for traced_call in order:
                gc.collect()
                t0 = time.perf_counter()
                if traced_call:
                    tracer.traced(lambda: cli.run_experiment(config))
                    t1 = time.perf_counter()
                    traced.append((t0, t1))
                    values = tracer.layer_metrics(config.output_dir)
                else:
                    cli.run_experiment(config)
                    t1 = time.perf_counter()
                    calls.append((t0, t1))
                step += t1 - t0
                checker.check(config.output_dir)
            if tracer is not None:
                if layers and any(values.get(n, 0) != layers[0].get(n, 0) for n in spans.EXACT_METRICS):
                    checker.failures.append("counts differ between traced calls")
                layers.append(values)
                span_log.append([list(vars(s).values()) for s in tracer.spans])
            spent += step

    scaled = [sampler.scaled(*c) for c in calls]
    result = {"size": input_size(config, corpus), "walls": [b - a for a, b in calls],
              "setup_walls": [b - a for a, b in setups]}
    if tracer is None:
        return {**result, "calls": scaled, "metrics": {
            "run_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(sampler.scaled(*s) for s in setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }}
    metrics = {}
    for name, unit, *_ in tracer.reported_metrics():
        if name == "trace.overhead_s":
            value = statistics.median(sampler.scaled(*t) - u for t, u in zip(traced, scaled))
        elif name in spans.EXACT_METRICS:
            value = layers[0].get(name, 0)
        else:
            value = statistics.median(v.get(name, 0.0) for v in layers)
        metrics[name] = {"value": value, "unit": unit}
    return {**result, "calls": [b - a for a, b in traced], "metrics": metrics,
            "missing": tracer.missing,
            "span_log": span_log}


def run_one(args) -> int:
    from workloads import WORKLOADS

    check_declared_metrics()
    workload = WORKLOADS[args.workload]
    run_id = f"{workload.name}-{args.seed}-{os.getpid()}"
    work = WORK / run_id
    shutil.rmtree(work, ignore_errors=True)
    checker = Checker(workload)
    try:
        result = measure(args, workload, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(environment(args.seed)))
    print("inputs " + json.dumps({"workload": workload.name, **result["size"]}))
    for name, digest in (checker.hashes or {}).items():
        print(f"sha256 {workload.name} seed={args.seed} {name} {digest}")

    ratio = checker.failed / checker.attempted
    print(f"cell_error_ratio {ratio} ratio ({checker.failed} of {checker.attempted} cells)")
    walls = result["setup_walls"]
    print(f"setups {len(walls)}, wall median {statistics.median(walls):.4f} s")
    print(f"calls {len(result['walls'])}, wall " + " ".join(f"{t:.3f}" for t in result["walls"]) + " s")
    metrics = result["metrics"]
    if args.trace:
        print(f"trace.missing {json.dumps(result['missing'])}")
        WORK.mkdir(exist_ok=True)
        log = WORK / f"spans_{workload.name}_{args.seed}.json"
        log.write_text(json.dumps({"run_id": run_id, "calls": result["span_log"]}) + "\n", "utf-8")
        print(f"spans written to {log.relative_to(ROOT)}")
        self_times = sorted(
            ((m["value"], name) for name, m in metrics.items()
             if name.endswith("_s") and not name.startswith("trace.")),
            reverse=True,
        )
        for value, name in self_times[:6]:
            print(f"top self time {name} {value:.4f} s")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    for failure in checker.failures:
        print(f"check FAILED: {failure}")
    calls = " ".join(f"{t:.3f}" for t in result["calls"])
    kind = "traced wall" if args.trace else "scaled"
    print(f"calls {len(result['calls'])}, {kind} {calls} s, checks {'passed' if not checker.failures else 'FAILED'}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if not checker.failures else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    results = {}
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        ok = ok and proc.returncode == 0 and results[name] is not None
    print()
    for name, result in results.items():
        if result is None:
            print(f"{name:18s} FAILED (no result)")
            continue
        cells = f"cell_error_ratio {result['failed'] / result['attempted']:.4f} ratio"
        if args.trace:
            shown = [(k, m) for k, m in result["metrics"].items() if k.startswith("trace.")]
        else:
            shown = list(result["metrics"].items())
        values = "  ".join(f"{k} {m['value']:.4f} {m['unit']}" for k, m in shown)
        print(f"{name:18s} {values}  {cells}  correct={result['correct']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    try:
        import_benchmark()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

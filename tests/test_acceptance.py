"""Shipping gate: the guarantees the package is sold on, one test each.

Every test prints a single PASS/FAIL line (visible with ``pytest -rA`` or on
failure) and keeps its tolerance pinned in the assertion, so a red line here
means a broken guarantee rather than a flaky fixture.
"""
import json
import math
import time

import numpy as np
import pytest

from textmath import (
    EmbeddingParams,
    count_streams,
    cross_validate,
    cross_validate_bags,
    fit_tfidf,
    generate_synthetic_corpus,
    load_lexicon,
    make_folds,
    purity,
    text_math_correlation,
    transform_tfidf,
)
from textmath.classify import ClassifierSpec, logreg_objective, mlp_objective
from textmath.cli import load_experiment_config, run_experiment
from textmath.cluster import ClustererSpec, fit_predict_clusterer
from textmath.encode import parse_encoding_name
from textmath.synth import class_lexicon_tsv
from tests.conftest import make_matrix, only_result, pearson
from tests.test_classify import central_diff
from tests.test_cli import MINI_MANIFEST, write_config
from tests.test_encode import naive_tfidf
from tests.test_evaluate import brute_force_macro_purity


def announce(num, label, failures, detail=""):
    ok = not failures
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if ok and detail:
        line += f" ({detail})"
    if failures:
        line += " (" + "; ".join(failures) + ")"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """One 14-class, 50-docs-per-class corpus with disjoint text vocabularies
    and a fully shared identifier pool, cross-validated on every channel the
    headline claims cover. Shared so the expensive folds run once."""
    corpus = generate_synthetic_corpus(
        14, 50, vocab_per_class=30, shared_identifiers=12, seed=42
    )
    plan = make_folds(len(corpus.documents), 10, seed=0)
    specs = [ClassifierSpec("logreg")]
    out = {"corpus": corpus, "plan": plan, "n_docs": len(corpus.documents)}

    start = time.perf_counter()
    out["text_tfidf"] = only_result(
        cross_validate(specs, parse_encoding_name("text_tfidf"), corpus, plan)
    ).mean_accuracy
    out["math_id_tfidf"] = only_result(
        cross_validate(specs, parse_encoding_name("math_id_tfidf"), corpus, plan)
    ).mean_accuracy
    # full-size embeddings would blow the stated runtime budget; a smaller
    # model answers the same chance-level question
    emb = EmbeddingParams(size=50, epochs=5, min_count=1, seed=0)
    out["math_id_embedding"] = only_result(
        cross_validate(specs, parse_encoding_name("math_id_embedding", emb), corpus, plan)
    ).mean_accuracy
    out["elapsed"] = time.perf_counter() - start

    lex_path = tmp_path_factory.mktemp("lexicon") / "class_names.tsv"
    class_lexicon_tsv(corpus, lex_path, names_per_symbol=3)
    lex = load_lexicon(lex_path)
    from textmath import enrich

    bags = [enrich(d, lex, top_n=3, mode="append") for d in corpus.documents]
    out["semantified"] = only_result(
        cross_validate_bags(specs, bags, corpus.labels, corpus.label_set, plan)
    ).mean_accuracy
    return out


@pytest.fixture(scope="module")
def mini_runs(tmp_path_factory):
    """The bundled-corpus grid executed twice with one seed."""
    runs = []
    for i in range(2):
        base = tmp_path_factory.mktemp(f"grid{i}")
        config = load_experiment_config(write_config(base))
        start = time.perf_counter()
        report = run_experiment(config)
        runs.append(
            {"out": config.output_dir, "report": report, "elapsed": time.perf_counter() - start}
        )
    return runs


def test_01_tfidf_matches_hand_computation_and_naive_reference():
    failures = []
    model = fit_tfidf(count_streams([["alpha", "beta", "alpha"], ["alpha", "gamma"]]), [0, 1])
    held_out = count_streams([["alpha", "beta", "alpha"]])
    row = transform_tfidf(model, held_out, [0], ["d0"]).features[0]
    got_alpha = row[model.vocabulary["alpha"]]
    got_beta = row[model.vocabulary["beta"]]
    idf_beta = math.log(1.5) + 1.0
    norm = math.hypot(2.0, idf_beta)
    if not math.isclose(got_alpha, 2.0 / norm, abs_tol=1e-6):
        failures.append(f"alpha {got_alpha!r} vs hand {2.0 / norm!r}")
    if not math.isclose(got_beta, idf_beta / norm, abs_tol=1e-6):
        failures.append(f"beta {got_beta!r} vs hand {idf_beta / norm!r}")
    # six-digit display constants carry their own rounding of the same values
    if abs(got_alpha - 0.818182) > 2e-6 or abs(got_beta - 0.574963) > 2e-6:
        failures.append("display constants off by more than rounding")

    rng = np.random.default_rng(10)
    mismatches = 0
    for _ in range(300):
        vocab = [f"w{i}" for i in range(int(rng.integers(1, 11)))]
        n_docs = int(rng.integers(1, 11))
        bags = [
            [vocab[int(i)] for i in rng.integers(len(vocab), size=rng.integers(0, 12))]
            for _ in range(n_docs)
        ]
        if not any(bags):
            continue
        counts, rows = count_streams(bags), np.arange(n_docs)
        got = transform_tfidf(fit_tfidf(counts, rows), counts, rows, list(map(str, rows))).features
        if not np.array_equal(got, naive_tfidf(bags, bags)):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/300 random corpora differ from naive reference")
    announce(
        1,
        "tf-idf oracle",
        failures,
        f"alpha={got_alpha:.8f}, beta={got_beta:.8f}, 300 random corpora exact",
    )


def test_02_macro_purity_matches_brute_force():
    failures = []
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        cluster_ids = rng.integers(0, rng.integers(1, 6), size=n).tolist()
        labels = [f"c{int(v)}" for v in rng.integers(0, rng.integers(1, 5), size=n)]
        got = purity(cluster_ids, labels)
        want = brute_force_macro_purity(cluster_ids, labels)
        worst = max(worst, abs(got - want))
        if got != want:
            failures.append(f"mismatch on n={n}: {got} vs {want}")
            break
    if purity(list(range(9)), [f"c{i % 3}" for i in range(9)]) != 1.0:
        failures.append("singleton clusters should score 1.0")
    one_big = purity([0] * 14, [f"c{i}" for i in range(14)])
    if abs(one_big - 1.0 / 14.0) > 1e-12:
        failures.append(f"one big cluster over 14 classes gave {one_big}")
    announce(2, "purity oracle", failures, "200 instances exact, degenerate cases pinned")


def test_03_analytic_gradients_match_finite_differences():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        n, d, c = (int(rng.integers(lo, hi)) for lo, hi in ((2, 11), (1, 6), (2, 4)))
        X = rng.normal(size=(n, d))
        T = np.eye(c)[rng.integers(0, c, size=n)]
        lam = float(rng.uniform(0.01, 1.0))
        wb = rng.normal(size=c * d + c)
        _, grad = logreg_objective(wb, X, T, lam)
        num = central_diff(lambda w: logreg_objective(w, X, T, lam)[0], wb)
        worst = max(worst, float(np.max(np.abs(grad - num) / np.maximum(np.abs(num), 1e-8))))

        h = int(rng.integers(1, 5))
        theta = rng.normal(size=d * h + h + h * c + c) * 0.5
        _, grad = mlp_objective(theta, X, T, h)
        num = central_diff(lambda t: mlp_objective(t, X, T, h)[0], theta)
        worst = max(worst, float(np.max(np.abs(grad - num) / np.maximum(np.abs(num), 1e-6))))
    elapsed = time.perf_counter() - start
    if worst >= 1e-4:
        failures.append(f"max relative error {worst:.2e}")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s")
    announce(
        3,
        "gradient checks",
        failures,
        f"max rel err {worst:.2e} over 20 logreg + 20 mlp instances in {elapsed:.1f}s",
    )


def test_04_clusterers_recover_separated_blobs():
    failures = []
    rng = np.random.default_rng(7)
    centers = np.zeros((14, 20))
    for i in range(14):
        centers[i, i] = 10.0 / math.sqrt(2.0)  # pairwise separation exactly 10 sigma
    X = np.vstack([c + rng.normal(size=(50, 20)) for c in centers])
    labels = [f"b{i}" for i in range(14) for _ in range(50)]
    mat = make_matrix(X)

    purities = {}
    for algo in ("kmeans", "agglomerative", "gmm"):
        assignment = fit_predict_clusterer(ClustererSpec(algo, k=14, seed=0), mat)
        purities[algo] = purity(assignment, labels)
        if purities[algo] < 0.99:
            failures.append(f"{algo} purity {purities[algo]:.4f}")
        if algo == "gmm":
            history = assignment.diagnostics["loglik_history"]
            drops = [b - a for a, b in zip(history, history[1:]) if b - a < -1e-8]
            if drops:
                failures.append(f"EM log-likelihood dropped by {min(drops):.2e}")

    single = make_matrix(rng.normal(size=(50, 20)))
    n_found = fit_predict_clusterer(ClustererSpec("meanshift", seed=0), single).n_clusters
    if n_found != 1:
        failures.append(f"mean shift found {n_found} clusters in one blob")
    detail = ", ".join(f"{a}={p:.3f}" for a, p in purities.items()) + ", meanshift=1 cluster"
    announce(4, "clustering sanity", failures, detail)


def test_05_text_separates_where_shared_identifiers_cannot(headline):
    failures = []
    p = 1.0 / 14.0
    band = 3.0 * math.sqrt(p * (1.0 - p) / headline["n_docs"])
    if headline["text_tfidf"] < 0.90:
        failures.append(f"text_tfidf accuracy {headline['text_tfidf']:.4f} < 0.90")
    for channel in ("math_id_tfidf", "math_id_embedding"):
        acc = headline[channel]
        if abs(acc - p) > band:
            failures.append(f"{channel} accuracy {acc:.4f} outside {p:.4f}±{band:.4f}")
    if headline["elapsed"] >= 300.0:
        failures.append(f"took {headline['elapsed']:.0f}s")
    announce(
        5,
        "text beats standalone math channels",
        failures,
        f"text={headline['text_tfidf']:.4f}, math_id_tfidf={headline['math_id_tfidf']:.4f}, "
        f"math_id_embedding={headline['math_id_embedding']:.4f}, "
        f"chance band {p:.4f}±{band:.4f}, {headline['elapsed']:.0f}s",
    )


def test_06_lexicon_enrichment_lifts_identifier_channel(headline):
    failures = []
    lift = headline["semantified"] - headline["math_id_tfidf"]
    if lift < 0.30:
        failures.append(
            f"lift {lift:.4f} (semantified {headline['semantified']:.4f}, "
            f"math_id {headline['math_id_tfidf']:.4f})"
        )
    announce(
        6,
        "semantification effect",
        failures,
        f"semantified={headline['semantified']:.4f}, math_id={headline['math_id_tfidf']:.4f}, "
        f"lift={lift:.4f}",
    )


def test_07_similarity_correlation_behaviour():
    failures = []
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 8))
    if abs(text_math_correlation(make_matrix(X), make_matrix(X.copy())) - 1.0) > 1e-9:
        failures.append("identical matrices not at r=1")
    scaled = X * rng.uniform(0.5, 4.0, size=(30, 1))
    if abs(text_math_correlation(make_matrix(X), make_matrix(scaled)) - 1.0) > 1e-9:
        failures.append("row rescaling changed similarities")
    a = rng.normal(size=(100, 6))
    b = rng.normal(size=(100, 6))
    r_indep = text_math_correlation(make_matrix(a), make_matrix(b))
    if abs(r_indep) >= 0.1:
        failures.append(f"independent matrices correlate at {r_indep:.3f}")
    if abs(pearson([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) - math.sqrt(3) / 2) > 1e-9:
        failures.append("hand-computed pearson fixture missed")
    announce(
        7,
        "text-math correlation",
        failures,
        f"identical/rescaled at 1.0, independent r={r_indep:+.4f}",
    )


def test_08_same_seed_reruns_are_byte_identical(mini_runs):
    failures = []
    first, second = (r["out"] for r in mini_runs)
    names = sorted(p.name for p in first.glob("*.csv"))
    if names != sorted(p.name for p in second.glob("*.csv")):
        failures.append("runs produced different file sets")
    else:
        differing = [
            n for n in names if (first / n).read_bytes() != (second / n).read_bytes()
        ]
        if differing:
            failures.append("differs: " + ", ".join(differing))
    announce(8, "seeded determinism", failures, f"{len(names)} CSVs byte-identical")


def test_09_bundled_grid_runs_fast_and_complete(mini_runs):
    failures = []
    run = mini_runs[0]
    if run["elapsed"] >= 60.0:
        failures.append(f"grid took {run['elapsed']:.1f}s")
    record = json.loads((run["out"] / "run_record.json").read_text())
    missing = [n for n in record["files"] if not (run["out"] / n).is_file()]
    if missing:
        failures.append("declared but missing: " + ", ".join(missing))
    if record["cell_errors"]:
        failures.append(f"{len(record['cell_errors'])} cell errors")

    markdown = (run["out"] / "report_classification.md").read_text()
    header = next(line for line in markdown.splitlines() if line.startswith("| Encoding"))
    if "Mean" not in header or "Max" not in header:
        failures.append("Mean/Max columns missing")
    runtime_row = next(
        (line for line in markdown.splitlines() if line.startswith("| Runtime [%]")), None
    )
    if runtime_row is None:
        failures.append("Runtime [%] row missing")
    else:
        values = [
            float(cell.strip().strip("*"))
            for cell in runtime_row.split("|")[2:-1]
            if cell.strip()
        ]
        if max(values) != 100.0:
            failures.append(f"slowest runtime {max(values)} != 100.0")
    announce(
        9,
        "bundled grid end-to-end",
        failures,
        f"{run['elapsed']:.1f}s, {len(record['files'])} files",
    )


def test_10_fold_plans_cover_disjointly_with_balanced_sizes():
    failures = []
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 400))
        k = int(rng.integers(2, n + 1))
        plan = make_folds(n, k, seed=int(rng.integers(0, 1 << 31)))
        folds = [plan.fold_indices(f) for f in range(k)]
        flat = np.concatenate(folds)
        if len(flat) != n or len(np.unique(flat)) != n:
            failures.append(f"cover broken at n={n}, k={k}")
            break
        sizes = [len(f) for f in folds]
        if max(sizes) - min(sizes) > 1:
            failures.append(f"size spread {max(sizes) - min(sizes)} at n={n}, k={k}")
            break
        checked += 1
    announce(10, "fold-plan invariants", failures, f"{checked} random (n, k, seed) triples")


# Bands for test 11, from twelve measured seeds (0-11): the tf-idf rows over
# corpus seeds, the embedding row over embedding seeds on the test's corpus
# (seed 0). Text tf-idf: mean 0.8306, sd 0.0392, band mean +- 3 sd.
# text_embedding with the lockstep trainer: mean 0.4976, sd 0.0282 (range
# 0.4490-0.5642; the test's seed 0 gives 0.5202). The band is the mean +- 3 sd
# of an earlier trainer (mean 0.4703, sd 0.0292), kept as it is: the new
# mean + 3 sd, 0.582, would loosen it.
OVERLAP_TEXT_BAND = (0.71, 0.95)
OVERLAP_EMBEDDING_BAND = (0.38, 0.56)
OVERLAP_EMBEDDING = EmbeddingParams(
    size=50, window=2, min_count=1, epochs=10, initial_alpha=0.05, min_alpha=0.05, seed=0
)


@pytest.fixture(scope="module")
def overlap_scores():
    """A 7-class corpus whose text words come from a random class's
    vocabulary with probability 0.65, and whose operators lean towards a
    class-preferred one: text separates the classes well but not perfectly,
    so a scoring regression of a few points shows."""
    corpus = generate_synthetic_corpus(
        7, 16, vocab_per_class=10, shared_identifiers=12, seed=0,
        tokens_per_doc=(15, 25), operator_skew=0.3, text_overlap=0.65,
    )
    plan = make_folds(len(corpus.documents), 3, seed=0)
    specs = [ClassifierSpec("logreg")]
    out = {"n_docs": len(corpus.documents), "n_classes": len(corpus.label_set)}
    for name in ("text_tfidf", "textmath_opid_tfidf", "math_id_tfidf", "text_embedding"):
        spec = parse_encoding_name(name, OVERLAP_EMBEDDING)
        out[name] = only_result(cross_validate(specs, spec, corpus, plan)).mean_accuracy
    return out


def test_11_overlap_corpus_scores_stay_in_measured_bands(overlap_scores):
    failures = []
    s = overlap_scores
    for name, (lo, hi) in (
        ("text_tfidf", OVERLAP_TEXT_BAND),
        ("text_embedding", OVERLAP_EMBEDDING_BAND),
    ):
        if not lo <= s[name] <= hi:
            failures.append(f"{name} accuracy {s[name]:.4f} outside [{lo}, {hi}]")
    if s["textmath_opid_tfidf"] < s["text_tfidf"]:
        failures.append(
            f"textmath_opid_tfidf {s['textmath_opid_tfidf']:.4f} < text {s['text_tfidf']:.4f}"
        )
    p = 1.0 / s["n_classes"]
    band = 3.0 * math.sqrt(p * (1.0 - p) / s["n_docs"])
    if abs(s["math_id_tfidf"] - p) > band:
        failures.append(
            f"math_id_tfidf accuracy {s['math_id_tfidf']:.4f} outside {p:.4f}±{band:.4f}"
        )
    announce(
        11,
        "overlap corpus scores inside measured bands",
        failures,
        ", ".join(
            f"{n}={s[n]:.4f}"
            for n in ("text_tfidf", "textmath_opid_tfidf", "math_id_tfidf", "text_embedding")
        )
        + f", chance band {p:.4f}±{band:.4f}",
    )

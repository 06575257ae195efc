"""Experiment configs, the grid driver, and the command-line interface."""
import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import textmath
from textmath import cluster, evaluate
from textmath.classify import ClassifierSpec
from textmath.cli import (
    ExperimentConfig,
    LexiconConfig,
    load_experiment_config,
    main,
    run_experiment,
)
from textmath.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"
MINI_MANIFEST = Path(textmath.__file__).parent / "data" / "mini_corpus" / "manifest.json"

OMIT = object()


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "corpus_manifest": str(MINI_MANIFEST),
        "output_dir": "out",
        "encodings": ["text_tfidf", "math_id_tfidf"],
        "classifiers": ["logreg", "knn"],
        "clusterers": [{"algo": "kmeans", "k": 3}],
        "n_folds": 5,
        "seed": 0,
    }
    for key, value in overrides.items():
        if value is OMIT:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw), "utf-8")
    return path


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"corpus_manifest": OMIT}, "corpus_manifest"),
            ({"output_dir": OMIT}, "output_dir"),
            ({"encodings": OMIT}, "encodings"),
            ({"encodings": []}, "encodings"),
            ({"encodings": ["docText_tfidf"]}, "encodings"),
            ({"classifiers": [], "clusterers": []}, "classifiers/clusterers"),
            ({"classifiers": [{"algo": "perceptron"}]}, "classifiers"),
            ({"clusterers": [{"algo": "kmeans"}]}, "clusterers"),
            ({"n_folds": 1}, "n_folds"),
            ({"granularity": "chapter"}, "granularity"),
            ({"corpus_manifest": "no_such_manifest.json"}, "corpus_manifest"),
            ({"lexicon": {"path": "missing.tsv"}}, "lexicon.path"),
            ({"lexicon": {"path": "x.tsv", "mode": "prepend"}}, "lexicon.mode"),
            ({"lexicon": {"path": "x.tsv", "top_n": 0}}, "lexicon.top_n"),
            ({"lexicon": {"mode": "append"}}, "lexicon"),
            ({"clusterers": [{"algo": "kmeans", "k": 3, "params": {"max_iter": 0}}]}, "max_iter"),
            ({"n_fold": 3}, "n_fold: unknown config key"),
            ({"lexicon": {"path": "x.tsv", "source": "arxiv"}}, "lexicon.source: unknown config key"),
            ({"classifiers": [{"algo": "knn", "parms": {}}]}, "classifiers.parms: unknown config key"),
            ({"clusterers": [{"algo": "kmeans", "k": 3, "pca": 5}]}, "clusterers.pca: unknown config key"),
            ({"n_folds": "5"}, "n_folds"),
            ({"n_folds": 2.5}, "n_folds"),
            ({"seed": "x"}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"seed": False}, "seed"),
            ({"seed": -1}, "seed"),
            ({"embedding_params": 5}, "embedding_params"),
            ({"embedding_params": ["size", 50]}, "embedding_params"),
            ({"encodings": "text_tfidf"}, "encodings: must be a list"),
            ({"encodings": ["text_tfidf", 3]}, "encodings: must be a list"),
            ({"lexicon": {"path": "x.tsv", "top_n": True}}, "lexicon.top_n"),
            ({"classifiers": [{"algo": "randforest", "params": {"n_trees": 0}}]}, "n_trees"),
            ({"classifiers": [{"algo": "randforest", "params": {"max_features": "log2"}}]},
             "max_features"),
            ({"classifiers": [{"algo": "knn", "params": {"k": 2.5}}]}, "knn.k"),
            ({"classifiers": [{"algo": "knn", "params": {"k": True}}]}, "knn.k"),
            ({"classifiers": [{"algo": "mlp", "params": {"hidden": 2.5}}]}, "mlp.hidden"),
            ({"classifiers": [{"algo": "mlp", "seed": "x"}]}, "mlp.seed"),
            ({"classifiers": [{"algo": "knn", "seed": -1}]}, "knn.seed"),
            ({"classifiers": [{"algo": "mlp", "params": {"batch_size": 0}}]}, "mlp.batch_size"),
            ({"classifiers": [{"algo": "mlp", "params": {"max_epochs": 2.0}}]}, "mlp.max_epochs"),
            ({"classifiers": [{"algo": "mlp", "params": {"patience": 0}}]}, "mlp.patience"),
            ({"classifiers": [{"algo": "logreg", "params": {"max_epochs": 0}}]},
             "logreg.max_epochs"),
            ({"classifiers": [{"algo": "linear_svc", "params": {"max_epochs": 1.5}}]},
             "linear_svc.max_epochs"),
            ({"clusterers": [{"algo": "kmeans", "k": 2.5}]}, "kmeans.k"),
            ({"clusterers": [{"algo": "kmeans", "k": True}]}, "kmeans.k"),
            ({"clusterers": [{"algo": "kmeans", "k": 3, "seed": "x"}]}, "kmeans.seed"),
            ({"clusterers": [{"algo": "kmeans", "k": 3, "pca_dims": 2.5}]}, "kmeans.pca_dims"),
            ({"embedding_params": {"size": 2.5}}, "embedding_params: .*size"),
            ({"embedding_params": {"window": 1.5}}, "embedding_params: .*window"),
            ({"embedding_params": {"epochs": 2.0}}, "embedding_params: .*epochs"),
            ({"embedding_params": {"seed": "x"}}, "embedding_params: .*seed"),
            ({"embedding_params": {"negative": -1}}, "embedding_params: .*negative"),
            ({"classifiers": "knn"}, "classifiers: must be a list"),
            ({"classifiers": 5}, "classifiers: must be a list"),
            ({"clusterers": "kmeans"}, "clusterers: must be a list"),
            ({"corpus_manifest": 5}, "corpus_manifest: must be a path"),
            ({"output_dir": 5}, "output_dir: must be a path"),
            ({"lexicon": {"path": 5}}, "lexicon.path: must be a path"),
            ({"lexicon": {"path": "x.tsv", "top_n": 2.5}}, "lexicon.top_n"),
            ({"granularity": "document"}, "granularity: unknown config key"),
        ],
    )
    def test_bad_configs_name_the_field(self, tmp_path, overrides, match):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=match):
            load_experiment_config(path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", "utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_experiment_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", "utf-8")
        with pytest.raises(ConfigError, match="top level"):
            load_experiment_config(path)

    @pytest.mark.parametrize("lexicon", [{"mode": "prepend"}, {"top_n": 0}])
    def test_api_built_config_checks_the_lexicon(self, tmp_path, lexicon):
        from textmath import load_corpus
        from textmath.synth import class_lexicon_tsv

        class_lexicon_tsv(load_corpus(MINI_MANIFEST), tmp_path / "lex.tsv")
        config = ExperimentConfig(
            corpus_manifest=MINI_MANIFEST,
            output_dir=tmp_path / "out",
            encodings=["text_tfidf"],
            classifiers=[ClassifierSpec("knn")],
            n_folds=2,
            lexicon=LexiconConfig(tmp_path / "lex.tsv", **lexicon),
        )
        with pytest.raises(ConfigError, match="lexicon." + next(iter(lexicon))):
            run_experiment(config)
        assert not config.output_dir.exists()

    def test_bad_embedding_params_rejected_before_any_output(self, tmp_path):
        config = ExperimentConfig(
            corpus_manifest=MINI_MANIFEST,
            output_dir=tmp_path / "out",
            encodings=["text_tfidf"],
            classifiers=[ClassifierSpec("knn")],
            n_folds=2,
            embedding_params={"size": 2.5},
        )
        with pytest.raises(ConfigError, match="embedding_params: .*size"):
            run_experiment(config)
        assert not config.output_dir.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 0, "embedding_params": {"seed": 0, "negative": 0}},
            {"classifiers": [{"algo": "knn", "params": {"k": 1}, "seed": 0}]},
            {"clusterers": [{"algo": "kmeans", "k": 1, "seed": 0, "pca_dims": None}]},
        ],
    )
    def test_integer_boundary_values_load(self, tmp_path, overrides):
        load_experiment_config(write_config(tmp_path, **overrides))

    def test_readme_example_config_loads(self, tmp_path):
        from textmath.synth import class_lexicon_tsv, generate_synthetic_corpus, write_corpus_markup

        section = README.read_text("utf-8").split("### Experiment config", 1)[1]
        raw = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        corpus = generate_synthetic_corpus(3, 2, 6, 3, seed=0)
        manifest = write_corpus_markup(corpus, (tmp_path / raw["corpus_manifest"]).parent)
        assert manifest == tmp_path / raw["corpus_manifest"]
        class_lexicon_tsv(corpus, tmp_path / raw["lexicon"]["path"])
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(raw), "utf-8")
        config = load_experiment_config(path)
        assert config.encodings == raw["encodings"]

    def test_paths_resolve_relative_to_config(self, tmp_path):
        nested = tmp_path / "nested"
        nested.mkdir()
        path = write_config(nested, output_dir="results")
        config = load_experiment_config(path)
        assert config.output_dir == nested / "results"
        assert config.corpus_manifest == MINI_MANIFEST


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("grid")
    config = load_experiment_config(write_config(base))
    report = run_experiment(config)
    return config, report


class TestRunExperiment:
    def test_declared_files_exist(self, grid_run):
        config, _ = grid_run
        record = json.loads((config.output_dir / "run_record.json").read_text())
        assert record["files"]
        for name in record["files"]:
            assert (config.output_dir / name).is_file()
        assert record["cell_errors"] == []
        assert record["n_documents"] == 60

    def test_all_report_files_written(self, grid_run):
        config, _ = grid_run
        for name in (
            "report_classification.csv",
            "report_classification.md",
            "report_clustering.csv",
            "report_clustering.md",
            "correlations.csv",
            "run_record.json",
        ):
            assert (config.output_dir / name).is_file()

    def test_grid_shape(self, grid_run):
        _, report = grid_run
        rows = {row for row, _ in report.cells}
        cols = {col for _, col in report.cells}
        assert rows == {"text_tfidf", "math_id_tfidf"}
        assert cols == {"logreg", "knn"}
        assert all(v is not None for v in report.cells.values())

    def test_text_separates_better_than_shared_identifiers(self, grid_run):
        # the bundled corpus gives every class its own text vocabulary but
        # one shared identifier pool
        _, report = grid_run
        assert report.cells[("text_tfidf", "logreg")] > 90.0
        assert report.cells[("math_id_tfidf", "logreg")] < 60.0

    def test_correlation_table_covers_encoding_pairs(self, grid_run):
        config, _ = grid_run
        lines = (config.output_dir / "correlations.csv").read_text().splitlines()
        assert lines[0] == "encoding_a,encoding_b,pearson_r"
        assert len(lines) == 2
        name_a, name_b, r = lines[1].split(",")
        assert (name_a, name_b) == ("text_tfidf", "math_id_tfidf")
        assert -1.0 <= float(r) <= 1.0

    def test_rerun_is_byte_identical(self, grid_run, tmp_path):
        config, _ = grid_run
        rerun = load_experiment_config(
            write_config(tmp_path, output_dir=str(tmp_path / "out2"))
        )
        run_experiment(rerun)
        csvs = sorted(p.name for p in config.output_dir.glob("*.csv"))
        assert csvs == sorted(p.name for p in rerun.output_dir.glob("*.csv"))
        for name in csvs:
            assert (config.output_dir / name).read_bytes() == (
                rerun.output_dir / name
            ).read_bytes()

    def test_cell_failure_leaves_other_columns_intact(self, tmp_path):
        config = load_experiment_config(
            write_config(
                tmp_path,
                classifiers=[],
                clusterers=[
                    {"algo": "kmeans", "k": 3},
                    {"algo": "kmeans", "k": 999},
                ],
            )
        )
        report = run_experiment(config)
        for enc in ("text_tfidf", "math_id_tfidf"):
            assert report.cells[(enc, "kmeans")] is not None
            assert report.cells[(enc, "kmeans#2")] is None
        record = json.loads((config.output_dir / "run_record.json").read_text())
        failed = [e for e in record["cell_errors"] if e["stage"] == "cluster"]
        assert len(failed) == 2
        assert all("KExceedsSamples" in e["error"] for e in failed)

    def test_lexicon_adds_semantified_row(self, tmp_path):
        from textmath import load_corpus
        from textmath.synth import class_lexicon_tsv

        class_lexicon_tsv(load_corpus(MINI_MANIFEST), tmp_path / "lex.tsv")
        config = load_experiment_config(
            write_config(
                tmp_path,
                classifiers=["knn"],
                clusterers=[],
                lexicon={"path": "lex.tsv", "top_n": 2, "mode": "append"},
            )
        )
        report = run_experiment(config)
        rows = {row for row, _ in report.cells}
        assert "semantified_tfidf" in rows
        assert report.cells[("semantified_tfidf", "knn")] is not None


@pytest.fixture(scope="module")
def lexicon_grid(tmp_path_factory):
    """A tf-idf row, an embedding row and the semantified row under three
    classifiers, run twice with the same seed."""
    from textmath import load_corpus
    from textmath.synth import class_lexicon_tsv

    base = tmp_path_factory.mktemp("lexicon_grid")
    class_lexicon_tsv(load_corpus(MINI_MANIFEST), base / "lex.tsv")
    runs = []
    for out in ("out", "rerun"):
        config = load_experiment_config(
            write_config(
                base,
                output_dir=out,
                encodings=["text_tfidf", "text_embedding"],
                classifiers=["logreg", "knn", "dectree"],
                clusterers=[],
                n_folds=3,
                embedding_params={"size": 8, "window": 2, "min_count": 1, "epochs": 2},
                lexicon={"path": "lex.tsv", "top_n": 2, "mode": "append"},
            )
        )
        runs.append((config, run_experiment(config)))
    return runs


def read_grid(path):
    with path.open(encoding="utf-8", newline="") as fh:
        return {row["encoding"]: row for row in csv.DictReader(fh)}


class TestClassificationGrid:
    def test_cells_match_one_classifier_cross_validation(self, lexicon_grid, tmp_path):
        from textmath import (
            cross_validate,
            cross_validate_bags,
            enrich,
            load_corpus,
            load_lexicon,
            make_folds,
            parse_encoding_name,
        )
        from textmath.embedding import EmbeddingParams

        config, report = lexicon_grid[0]
        corpus = load_corpus(config.corpus_manifest)
        plan = make_folds(len(corpus.documents), config.n_folds, config.seed)
        emb = EmbeddingParams(**{"seed": config.seed, **config.embedding_params})
        lex = load_lexicon(config.lexicon.path)
        bags = [enrich(d, lex, config.lexicon.top_n, "append") for d in corpus.documents]
        oracles = {}
        for clf in config.classifiers:
            for name in config.encodings:
                encoding = parse_encoding_name(name, emb)
                oracles[(name, clf.algo)] = cross_validate(clf, encoding, corpus, plan)
            oracles[("semantified_tfidf", clf.algo)] = cross_validate_bags(
                clf, bags, corpus.labels, corpus.label_set, plan
            )
        rows = [*config.encodings, "semantified_tfidf"]
        cols = [clf.algo for clf in config.classifiers]
        assert list(report.cells) == [(row, col) for row in rows for col in cols]
        for (row, col), oracle in oracles.items():
            assert report.cells[(row, col)] == 100.0 * oracle.mean_accuracy
            oracle.confusion.to_csv(tmp_path / "oracle.csv")
            written = config.output_dir / f"confusion_{row}_{col}.csv"
            assert written.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_record_holds_every_cells_fold_accuracies(self, lexicon_grid):
        config, report = lexicon_grid[0]
        record = json.loads((config.output_dir / "run_record.json").read_text())
        grid = read_grid(config.output_dir / "report_classification.csv")
        assert list(record["fold_accuracies"]) == [f"{r}/{c}" for r, c in report.cells]
        for cell, accuracies in record["fold_accuracies"].items():
            row, col = cell.split("/")
            assert len(accuracies) == config.n_folds
            assert f"{100.0 * np.mean(accuracies):.6f}" == grid[row][col]

    def test_rerun_writes_identical_confusions(self, lexicon_grid):
        (first, _), (second, _) = lexicon_grid
        names = sorted(p.name for p in first.output_dir.glob("confusion_*.csv"))
        assert len(names) == 9
        assert names == sorted(p.name for p in second.output_dir.glob("confusion_*.csv"))
        for name in names + ["report_classification.csv"]:
            assert (first.output_dir / name).read_bytes() == (second.output_dir / name).read_bytes()

    @pytest.mark.parametrize("classifiers", [["knn"], ["logreg", "knn", "dectree"]])
    def test_each_row_is_encoded_once_per_fold(self, tmp_path, monkeypatch, classifiers):
        fitted = []
        original = evaluate.fit_streams

        def counting(spec, streams, sample_ids):
            fitted.append(spec.name)
            return original(spec, streams, sample_ids)

        monkeypatch.setattr(evaluate, "fit_streams", counting)
        config = load_experiment_config(
            write_config(tmp_path, classifiers=classifiers, clusterers=[], n_folds=3)
        )
        run_experiment(config)
        assert Counter(fitted) == {"text_tfidf": 3, "math_id_tfidf": 3}

    def test_each_rows_streams_are_built_once(self, tmp_path, monkeypatch):
        """The folds slice one list of streams per row, not one per fold."""
        built = []
        original = evaluate.token_stream

        def counting(doc, content, **kwargs):
            built.append(content)
            return original(doc, content, **kwargs)

        monkeypatch.setattr(evaluate, "token_stream", counting)
        config = load_experiment_config(write_config(tmp_path, clusterers=[], n_folds=3))
        run_experiment(config)
        assert Counter(built) == {"text": 60, "math_id": 60}

    def test_classifier_failing_in_one_fold_empties_only_its_cell(self, tmp_path, monkeypatch):
        knn_fits = []
        original = evaluate.fit_classifier

        def flaky(spec, X, y, label_set=None):
            if spec.algo == "knn":
                knn_fits.append(spec)
                if len(knn_fits) == 2:
                    raise RuntimeError("knn broke in fold 1")
            return original(spec, X, y, label_set=label_set)

        monkeypatch.setattr(evaluate, "fit_classifier", flaky)
        config = load_experiment_config(write_config(tmp_path, clusterers=[], n_folds=3))
        report = run_experiment(config)
        empty = [cell for cell, value in report.cells.items() if value is None]
        assert empty == [("text_tfidf", "knn")]
        record = json.loads((config.output_dir / "run_record.json").read_text())
        assert record["cell_errors"] == [
            {"stage": "classify", "cell": "text_tfidf/knn", "error": "RuntimeError: knn broke in fold 1"}
        ]
        assert "text_tfidf/knn" not in record["fold_accuracies"]
        assert len(knn_fits) == 2 + 3  # no fit in its row's last fold

    def test_failing_encoder_empties_its_row(self, tmp_path, monkeypatch):
        original = evaluate.fit_streams

        def broken(spec, streams, sample_ids):
            if spec.content == "math_id":
                raise RuntimeError("no math")
            return original(spec, streams, sample_ids)

        monkeypatch.setattr(evaluate, "fit_streams", broken)
        self.assert_math_id_row_is_empty(tmp_path, "RuntimeError: no math")

    def test_failing_token_stream_empties_its_row(self, tmp_path, monkeypatch):
        original = evaluate.token_stream

        def broken(doc, content, **kwargs):
            if content == "math_id":
                raise RuntimeError("no streams")
            return original(doc, content, **kwargs)

        monkeypatch.setattr(evaluate, "token_stream", broken)
        self.assert_math_id_row_is_empty(tmp_path, "RuntimeError: no streams")

    @staticmethod
    def assert_math_id_row_is_empty(tmp_path, error):
        config = load_experiment_config(write_config(tmp_path, clusterers=[], n_folds=3))
        report = run_experiment(config)
        assert [c for c, v in report.cells.items() if v is None] == [
            ("math_id_tfidf", "logreg"),
            ("math_id_tfidf", "knn"),
        ]
        record = json.loads((config.output_dir / "run_record.json").read_text())
        assert record["cell_errors"] == [
            {"stage": "classify", "cell": f"math_id_tfidf/{col}", "error": error}
            for col in ("logreg", "knn")
        ]


@pytest.fixture(scope="module")
def cluster_grid(tmp_path_factory):
    """Every clusterer on two tf-idf rows of the mini corpus."""
    base = tmp_path_factory.mktemp("cluster_grid")
    config = load_experiment_config(
        write_config(
            base,
            classifiers=[],
            clusterers=[
                {"algo": "kmeans", "k": 3},
                {"algo": "agglomerative", "k": 3},
                {"algo": "gmm", "k": 3},
                {"algo": "affinity"},
                {"algo": "meanshift", "params": {"quantile": 0.05}},
            ],
        )
    )
    return config, run_experiment(config)


class TestClusteringGrid:
    SCALARS = {
        "kmeans": {"iterations"},
        "agglomerative": set(),
        "gmm": {"converged", "iterations"},
        "affinity": {"converged", "iterations"},
        "meanshift": {"bandwidth", "modes"},
    }

    def test_record_holds_every_cells_diagnostics(self, cluster_grid):
        config, report = cluster_grid
        record = json.loads((config.output_dir / "run_record.json").read_text())
        diagnostics = record["cluster_diagnostics"]
        assert list(diagnostics) == [f"{r}/{c}" for r, c in report.cells]
        for (row, col), cell in zip(report.cells, diagnostics.values()):
            path = config.output_dir / f"assignments_{row}_{col}.csv"
            with path.open(encoding="utf-8", newline="") as fh:
                ids = {line["cluster_id"] for line in csv.DictReader(fh)}
            sidecar = json.loads(path.with_suffix(".csv.json").read_text())["diagnostics"]
            if col == "gmm":
                sidecar["iterations"] = len(sidecar["loglik_history"]) - 1
            assert cell == {"n_clusters": len(ids), **{k: sidecar[k] for k in self.SCALARS[col]}}

    def test_failed_cell_has_no_diagnostics(self, tmp_path):
        config = load_experiment_config(
            write_config(
                tmp_path,
                classifiers=[],
                clusterers=[{"algo": "kmeans", "k": 3}, {"algo": "kmeans", "k": 999}],
            )
        )
        run_experiment(config)
        record = json.loads((config.output_dir / "run_record.json").read_text())
        assert list(record["cluster_diagnostics"]) == ["text_tfidf/kmeans", "math_id_tfidf/kmeans"]

    @pytest.mark.parametrize(
        "kmeans,gmm_first,fits_per_row",
        [
            ({}, False, 1),
            ({}, True, 1),
            ({"params": {"n_restarts": 4}}, False, 2),
            ({"pca_dims": 5}, True, 2),
        ],
        ids=["shared", "gmm-first", "other-params", "other-pca"],
    )
    def test_a_rows_kmeans_is_fitted_once(self, tmp_path, monkeypatch, kmeans, gmm_first, fits_per_row):
        """GMM starts from its row's kmeans column's fit when the k-means
        arguments match; every cell's files equal those of a grid that has
        that column alone."""
        fits = []
        original = cluster._fit_kmeans

        def counting(X, k, params, seed):
            fits.append(k)
            return original(X, k, params, seed)

        monkeypatch.setattr(cluster, "_fit_kmeans", counting)
        columns = {"kmeans": {"algo": "kmeans", "k": 3, **kmeans}, "gmm": {"algo": "gmm", "k": 3}}
        order = ["gmm", "kmeans"] if gmm_first else ["kmeans", "gmm"]
        config = load_experiment_config(
            write_config(tmp_path, classifiers=[], clusterers=[columns[c] for c in order])
        )
        report = run_experiment(config)
        assert None not in report.cells.values()
        assert len(fits) == fits_per_row * len(config.encodings)
        for col in order:
            alone = load_experiment_config(
                write_config(
                    tmp_path, f"{col}.json", classifiers=[], clusterers=[columns[col]], output_dir=col
                )
            )
            run_experiment(alone)
            for row in config.encodings:
                for suffix in (".csv", ".csv.json"):
                    name = f"assignments_{row}_{col}{suffix}"
                    assert (config.output_dir / name).read_bytes() == (
                        alone.output_dir / name
                    ).read_bytes()

    def test_runtime_row_times_the_clusterer_fit_only(self, tmp_path, monkeypatch):
        """The k=2 column's fit is slow and the k=3 column's file writes are
        slower; only the fit counts, so k=2 is the slowest column."""
        import time

        from textmath import cli

        fit, dump = cli.fit_predict_clusterer, cli.dump_assignment

        def slow_fit(spec, matrix):
            if spec.k == 2:
                time.sleep(0.05)
            return fit(spec, matrix)

        def slow_dump(assignment, path):
            if assignment.spec.k == 3:
                time.sleep(0.25)
            dump(assignment, path)

        monkeypatch.setattr(cli, "fit_predict_clusterer", slow_fit)
        monkeypatch.setattr(cli, "dump_assignment", slow_dump)
        config = load_experiment_config(
            write_config(
                tmp_path,
                classifiers=[],
                clusterers=[{"algo": "kmeans", "k": 3}, {"algo": "kmeans", "k": 2}],
            )
        )
        report = run_experiment(config)
        assert report.runtimes_percent["kmeans#2"] == 100.0
        assert report.runtimes_percent["kmeans"] < 100.0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A synth corpus pushed through the ingest stage once per module."""
    base = tmp_path_factory.mktemp("pipeline")
    corpus_dir = base / "corpus"
    assert (
        main(
            [
                "synth",
                "--classes", "2",
                "--docs-per-class", "4",
                "--vocab-per-class", "6",
                "--shared-identifiers", "3",
                "--seed", "5",
                "--output-dir", str(corpus_dir),
                "--with-lexicon",
            ]
        )
        == 0
    )
    jsonl = base / "corpus.jsonl"
    assert main(["ingest", str(corpus_dir / "manifest.json"), "--output", str(jsonl)]) == 0
    return {
        "base": base,
        "manifest": corpus_dir / "manifest.json",
        "lexicon": corpus_dir / "lexicon.tsv",
        "jsonl": jsonl,
    }


class TestSubcommands:
    def test_synth_writes_manifest_and_lexicon(self, pipeline):
        assert pipeline["manifest"].is_file()
        assert pipeline["lexicon"].is_file()
        entries = json.loads(pipeline["manifest"].read_text())["entries"]
        assert len(entries) == 8

    def test_ingest_output_is_jsonl(self, pipeline):
        lines = pipeline["jsonl"].read_text().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert {"id", "label", "text_tokens", "formulas"} <= set(first)

    def test_encode(self, pipeline, capsys):
        out = pipeline["base"] / "mat.csv"
        code = main(["encode", str(pipeline["jsonl"]), "--encoding", "text_tfidf",
                     "--output", str(out)])
        assert code == 0
        assert out.is_file()
        assert "8 x " in capsys.readouterr().out

    def test_classify(self, pipeline, capsys):
        code = main(["classify", str(pipeline["jsonl"]), "--encoding", "text_tfidf",
                     "--algo", "knn", "--folds", "4"])
        assert code == 0
        assert "mean accuracy:" in capsys.readouterr().out

    def test_cluster(self, pipeline, capsys):
        code = main(["cluster", str(pipeline["jsonl"]), "--encoding", "text_tfidf",
                     "--algo", "kmeans", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "macro purity:" in out and "weighted purity:" in out

    def test_correlate(self, pipeline, capsys):
        code = main(["correlate", str(pipeline["jsonl"]),
                     "--encoding-a", "text_tfidf", "--encoding-b", "math_id_tfidf"])
        assert code == 0
        assert "pearson r(text_tfidf, math_id_tfidf) = " in capsys.readouterr().out

    def test_semantify(self, pipeline):
        out = pipeline["base"] / "enriched.jsonl"
        code = main(["semantify", str(pipeline["jsonl"]), "--lexicon",
                     str(pipeline["lexicon"]), "--top-n", "1", "--output", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 8
        assert all(r["tokens"] for r in records)

    def test_run(self, pipeline, tmp_path, capsys):
        config = write_config(
            tmp_path,
            corpus_manifest=str(pipeline["manifest"]),
            classifiers=["knn"],
            clusterers=[],
            n_folds=4,
        )
        code = main(["run", str(config), "--output-dir", str(tmp_path / "results")])
        assert code == 0
        out = capsys.readouterr().out
        assert "best cell:" in out
        assert "reports written to" in out
        assert (tmp_path / "results" / "report_classification.csv").is_file()


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        config = write_config(tmp_path, encodings=[])
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"classifiers": [{"algo": "knn", "params": {"k": 2.5}}]},
            {"classifiers": [{"algo": "mlp", "seed": "x"}]},
            {"clusterers": [{"algo": "kmeans", "k": 3, "pca_dims": 2.5}]},
            {"embedding_params": {"epochs": 2.0}},
            {"classifiers": "knn"},
            {"output_dir": 5},
        ],
    )
    def test_type_faults_are_config_errors_before_any_output(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, **overrides)
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["cluster", "{jsonl}", "--encoding", "text_tfidf", "--algo", "kmeans", "--k", "0"],
             "kmeans.k"),
            (["cluster", "{jsonl}", "--encoding", "text_tfidf", "--algo", "kmeans"], "requires k"),
            (["cluster", "{jsonl}", "--encoding", "text_tfidf", "--algo", "gmm", "--k", "2",
              "--pca-dims", "0"], "gmm.pca_dims"),
            (["cluster", "{jsonl}", "--encoding", "text_tfidf", "--algo", "kmeans", "--k", "2",
              "--seed", "-1"], "--seed"),
            (["encode", "{jsonl}", "--encoding", "text_tfidf", "--output", "{out}", "--seed", "-1"],
             "--seed"),
            (["encode", "{jsonl}", "--encoding", "docText_tfidf", "--output", "{out}"],
             "--encoding"),
            (["classify", "{jsonl}", "--encoding", "text_tfidf", "--algo", "knn", "--seed", "-1"],
             "--seed"),
            (["correlate", "{jsonl}", "--encoding-a", "text_tfidf", "--encoding-b", "math_id_tfidf",
              "--seed", "-1"], "--seed"),
            (["correlate", "{jsonl}", "--encoding-a", "text_tfidf", "--encoding-b", "math"],
             "--encoding-b"),
            (["semantify", "{jsonl}", "--lexicon", "{lexicon}", "--output", "{out}", "--top-n", "0"],
             "--top-n"),
            (["classify", "{jsonl}", "--encoding", "text_tfidf", "--algo", "knn", "--folds", "1",
              "--output-dir", "{out}"], "--folds"),
            (["synth", "--output-dir", "{out}", "--seed", "-1"], "--seed"),
            (["synth", "--output-dir", "{out}", "--classes", "0"], "--classes"),
            (["synth", "--output-dir", "{out}", "--docs-per-class", "0"], "--docs-per-class"),
            (["synth", "--output-dir", "{out}", "--vocab-per-class", "0"], "--vocab-per-class"),
            (["synth", "--output-dir", "{out}", "--shared-identifiers", "0"],
             "--shared-identifiers"),
            (["synth", "--output-dir", "{out}", "--operator-skew", "2"], "--operator-skew"),
        ],
    )
    def test_bad_stage_options_are_config_errors(self, pipeline, tmp_path, capsys, argv, field):
        paths = {"jsonl": pipeline["jsonl"], "lexicon": pipeline["lexicon"], "out": tmp_path / "o"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not (tmp_path / "o").exists()

    def test_more_folds_than_documents_is_2(self, pipeline, capsys):
        assert main(["classify", str(pipeline["jsonl"]), "--encoding", "text_tfidf",
                     "--algo", "knn", "--folds", "9"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_domain_error_is_2(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "ghost.json"),
                     "--output", str(tmp_path / "c.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_os_error_is_2(self, pipeline, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "mat.csv"
        code = main(["encode", str(pipeline["jsonl"]), "--encoding", "text_tfidf",
                     "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

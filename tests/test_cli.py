"""Experiment configs, the grid driver, and the command-line interface."""
import json
from pathlib import Path

import pytest

import textmath
from textmath.cli import load_experiment_config, main, run_experiment
from textmath.errors import ConfigError

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
        code = main(["run", str(config), "--jobs", "1",
                     "--output-dir", str(tmp_path / "results")])
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

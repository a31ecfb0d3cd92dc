"""CLI tests: parser wiring and the fast commands end to end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_analyze(self):
        args = build_parser().parse_args(["analyze", "ooi"])
        assert args.command == "analyze"
        assert args.dataset == "ooi"
        assert args.scale == "small"

    def test_global_options(self):
        args = build_parser().parse_args(["--scale", "full", "--seed", "3", "analyze", "gage"])
        assert args.scale == "full" and args.seed == 3

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "1"])

    def test_train_model_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "SVD", "ooi"])

    def test_recommend_args(self):
        args = build_parser().parse_args(["recommend", "ooi", "5", "--k", "3"])
        assert args.user == 5 and args.k == 3

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("backend", ["numba", "auto", "numpy", "oracle"])
    def test_profile_rejects_retired_backend(self, backend):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "ooi", "--backend", backend])
        assert exc.value.code == 2


class TestCommands:
    def test_analyze_runs(self, capsys):
        assert main(["analyze", "ooi"]) == 0
        out = capsys.readouterr().out
        assert "query concentration" in out

    def test_table1_runs(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_figure3_runs(self, capsys):
        assert main(["figure", "3"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_train_bprmf_runs(self, capsys):
        assert main(["train", "BPRMF", "ooi", "--epochs", "2"]) == 0
        assert "recall@20" in capsys.readouterr().out

    def test_train_with_save(self, tmp_path, capsys, monkeypatch):
        """--save writes the one model trained and evaluated (best snapshot)."""
        from repro.eval import RankingEvaluator
        from repro.experiments import build_model, load_dataset
        from repro.io import load_parameters
        from repro.train.engine import TrainEngine

        fits = []
        real_fit = TrainEngine.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(self)
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(TrainEngine, "fit", counting_fit)
        path = tmp_path / "ck.npz"
        argv = ["--seed", "7", "train", "BPRMF", "ooi", "--epochs", "10", "--save", str(path)]
        assert main(argv) == 0
        assert len(fits) == 1
        out = capsys.readouterr().out
        ds = load_dataset("ooi", scale="small", seed=7)
        model = build_model("BPRMF", ds, ds.build_ckg(), seed=7)
        load_parameters(path, model)
        result = RankingEvaluator(ds.split.train, ds.split.test, k=20).evaluate_model(model)
        assert f"recall@20={result.recall:.4f}" in out

    def test_recommend_runs(self, capsys):
        assert main(["recommend", "ooi", "0", "--epochs", "2", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "top-3 data objects" in out

    def test_profile_runs(self, capsys):
        assert main(["profile", "ooi", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "edge_attention_scores" in out

    def test_recommend_bad_user(self, capsys):
        assert main(["recommend", "ooi", "99999", "--epochs", "1"]) == 2


class TestCacheCommand:
    def test_parser_accepts_cache_actions(self):
        args = build_parser().parse_args(["--cache-dir", "/c", "cache", "ls", "--kind", "trace"])
        assert args.command == "cache" and args.action == "ls"
        assert args.cache_dir == "/c" and args.kind == ["trace"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])

    def test_path_reports_disabled_without_config(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "path"]) == 0
        assert "disabled" in capsys.readouterr().out

    def test_ls_and_gc_require_configured_cache(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "ls"]) == 2
        assert main(["cache", "gc"]) == 2

    def test_ls_gc_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        # populate the cache through a real (small) pipeline build
        from repro.pipeline import DatasetPipeline

        DatasetPipeline("ooi", scale="small", seed=7, cache_dir=cache).split()
        assert main(["--cache-dir", cache, "cache", "path"]) == 0
        assert cache in capsys.readouterr().out

        assert main(["--cache-dir", cache, "cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "split" in out and "artifact(s)" in out

        assert main(["--cache-dir", cache, "cache", "gc", "--kind", "trace"]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out
        assert main(["--cache-dir", cache, "cache", "ls"]) == 0
        assert "trace" not in capsys.readouterr().out

        assert main(["--cache-dir", cache, "cache", "gc"]) == 0
        assert main(["--cache-dir", cache, "cache", "ls"]) == 0
        assert "empty" in capsys.readouterr().out

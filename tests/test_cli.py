"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestAsk:
    def test_answers_question(self, capsys):
        code = main(["ask", "How tall is Michael Jordan?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.98" in out

    def test_list_answers_use_labels(self, capsys):
        main(["ask", "Which book is written by Orhan Pamuk?"])
        out = capsys.readouterr().out
        assert "My Name Is Red" in out
        assert "Snow" in out

    def test_unanswered_exits_nonzero(self, capsys):
        code = main(["ask", "Is Frank Herbert still alive?"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unanswered" in out

    def test_boolean_with_extensions(self, capsys):
        code = main(["ask", "--extensions", "Is Berlin the capital of Germany?"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "Yes"

    def test_verbose_shows_internals(self, capsys):
        main(["ask", "--verbose", "Who is the mayor of Berlin?"])
        out = capsys.readouterr().out
        assert "triple patterns (section 2.1):" in out
        assert "winning query:" in out
        assert "SELECT" in out


class TestSparql:
    def test_select(self, capsys):
        code = main(["sparql", "SELECT ?x WHERE { ?x a dbont:Country } LIMIT 2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("?x")
        assert out.count("\n") == 3  # header + 2 rows

    def test_ask(self, capsys):
        main(["sparql", "ASK { res:Istanbul dbont:country res:Turkey }"])
        assert capsys.readouterr().out.strip() == "true"


class TestValidateAndPlan:
    def test_validate_clean_kb(self, capsys):
        assert main(["validate"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_plan_shows_query_plan(self, capsys):
        code = main(["plan",
                     "SELECT ?b WHERE { ?b a dbont:Book . ?b dbont:author ?w }"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SELECT plan" in out
        assert "join[1]" in out and "join[2]" in out

    def test_plan_ask(self, capsys):
        main(["plan", "ASK { res:Istanbul dbont:country res:Turkey }"])
        assert "ASK plan" in capsys.readouterr().out


class TestExplainCommand:
    """`repro explain <question>` — the full diagnostic view."""

    def test_explain_answered_question(self, capsys):
        code = main(["explain", "Who wrote The Pillars of the Earth?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "winning query:" in out
        assert "candidate ranking (section 2.3.1):" in out
        assert "winner" in out
        # Tracing is forced on: the span tree is always present.
        assert "trace:" in out
        assert "- annotate (" in out
        assert "- execute (" in out

    def test_explain_unanswered_exits_nonzero(self, capsys):
        code = main(["explain", "Is Frank Herbert still alive?"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unanswered:" in out
        assert "trace:" in out


class TestTraceFlag:
    def test_ask_trace_prints_span_tree(self, capsys):
        code = main(["ask", "--trace", "How tall is Michael Jordan?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "- answer (" in out
        assert "- map (" in out
        assert "1.98" in out

    def test_ask_without_trace_has_no_tree(self, capsys):
        main(["ask", "How tall is Michael Jordan?"])
        out = capsys.readouterr().out
        assert "- answer (" not in out


class TestFlagTable:
    """The declarative flag->PipelineConfig plumbing."""

    def test_flags_land_on_config_fields(self):
        from repro.cli import _build_parser, config_from_args

        args = _build_parser().parse_args(
            ["ask", "--max-candidates", "3", "--stage-budget-ms", "50",
             "--trace", "--trace-sample", "4", "q"]
        )
        config = config_from_args(args)
        assert config.max_candidates == 3
        assert config.stage_budget_ms == 50.0
        assert config.enable_tracing is True
        assert config.trace_sample_every == 4

    def test_absent_flags_keep_faithful_defaults(self):
        from repro.cli import _build_parser, config_from_args
        from repro.core import PipelineConfig

        args = _build_parser().parse_args(["ask", "q"])
        assert config_from_args(args) == PipelineConfig()

    def test_extensions_and_faults_compose(self):
        from repro.cli import _build_parser, config_from_args

        args = _build_parser().parse_args(
            ["ask", "--extensions", "--inject-fault", "map:error", "q"]
        )
        config = config_from_args(args)
        assert config.enable_boolean_questions is True
        assert config.fault_injector is not None

    def test_inject_fault_help_names_every_kind(self, capsys):
        from repro.cli import _build_parser
        from repro.reliability.faults import FAULT_KINDS

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["ask", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--inject-fault STAGE:KIND[:MATCH]" in out
        assert "|".join(FAULT_KINDS) in out

    def test_inject_fault_parses_a_slow_spec(self):
        from repro.cli import _build_parser, config_from_args

        args = _build_parser().parse_args(
            ["ask", "--inject-fault", "execute:slow", "q"]
        )
        injector = config_from_args(args).fault_injector
        # A slow fault delays the stage, then lets it run.
        assert injector.check("execute", "q") is False
        assert injector.fired("execute", "slow") == 1

    def test_same_flags_on_every_pipeline_command(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        for command in ("ask", "eval"):
            args = parser.parse_args(
                [command, "--max-candidates", "2", "--trace"]
                + (["q"] if command == "ask" else [])
            )
            assert args.max_candidates == 2
            assert args.trace is True


class TestOtherCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "triples:" in out
        assert "object properties:" in out

    def test_mine_default_words(self, capsys):
        assert main(["mine"]) == 0
        out = capsys.readouterr().out
        assert "deathPlace" in out

    def test_mine_specific_word(self, capsys):
        main(["mine", "alive"])
        assert "(no patterns)" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_export(self, capsys, tmp_path):
        out_dir = tmp_path / "release"
        assert main(["export", str(out_dir)]) == 0
        assert (out_dir / "curated.nt").exists()
        assert (out_dir / "curated.ttl").exists()
        assert (out_dir / "patterns.tsv").exists()
        assert (out_dir / "pattern_store.json").exists()
        # The exported N-Triples must reload to the same graph.
        from repro.kb import load_curated_kb
        from repro.rdf import Graph, read_ntriples
        reloaded = Graph(read_ntriples(out_dir / "curated.nt"))
        assert len(reloaded) == len(load_curated_kb().graph)

    def test_export_single_format(self, capsys, tmp_path):
        out_dir = tmp_path / "nt-only"
        assert main(["export", "--format", "nt", str(out_dir)]) == 0
        assert (out_dir / "curated.nt").exists()
        assert not (out_dir / "curated.ttl").exists()


@pytest.mark.slow
class TestEval:
    def test_eval_prints_table2(self, capsys):
        assert main(["eval"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "This reproduction" in out

    def test_eval_dev_metrics_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(["eval", "--dev", "--metrics-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics written to" in out
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.metrics/v1"
        assert "stage.annotate.seconds" in document["histograms"]
        assert "sparql.result_cache.hits" in document["gauges"]


class TestKbBuildSegments:
    def test_reports_shipped_resources_then_serves_from_them(self, tmp_path, capsys):
        out_dir = tmp_path / "segments"
        code = main(["kb", "build-segments", "--shards", "2", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mined the shipped resources in" in out
        for name in ("kb_index.bin", "patty_store.res"):
            size = (out_dir / name).stat().st_size
            assert f"{name}" in out and f"{size:,} bytes" in out
        code = main(["ask", "--kb-backend", "segments", "--kb-path", str(out_dir),
                     "Which book is written by Orhan Pamuk?"])
        assert code == 0
        assert "My Name Is Red" in capsys.readouterr().out


class TestServe:
    STDIN = "How tall is Tom Cruise?\n\nIs Frank Herbert still alive?\n"

    def serve(self, monkeypatch, capsys, snapshot):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.STDIN))
        code = main(["serve", "--snapshot", str(snapshot)])
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err.splitlines()

    def test_answers_stdin_and_round_trips_warm_state(
        self, monkeypatch, capsys, tmp_path
    ):
        snapshot = tmp_path / "warm.snapshot"
        code, out, err = self.serve(monkeypatch, capsys, snapshot)
        assert code == 0
        # One line per non-blank question; the blank line is skipped.
        assert len(out) == 2
        question, answer = out[0].split("\t")
        assert question == "How tall is Tom Cruise?"
        assert answer and not answer.startswith("(unanswered")
        question, answer = out[1].split("\t")
        assert question == "Is Frank Herbert still alive?"
        assert answer.startswith("(unanswered [map]: ")
        assert len(err) == 2
        assert err[0].startswith("(starting cold: ")
        assert err[1].startswith("(warm state saved: ")
        assert snapshot.exists()

        code, again, err = self.serve(monkeypatch, capsys, snapshot)
        assert code == 0
        assert again == out
        assert err[0].startswith("(warm state restored: ")

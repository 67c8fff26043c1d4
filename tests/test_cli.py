"""CLI smoke tests (driving main() directly)."""

from __future__ import annotations

import pytest

from repro.circuits.parse import parse_formula
from repro.cli import build_parser, main
from repro.compiler import Compiler, DynamicStrategy


class TestCompile:
    def test_compile_balanced(self, capsys):
        assert main(["compile", "(a & b) | c"]) == 0
        out = capsys.readouterr().out
        assert "canonical SDD" in out and "models:" in out

    def test_compile_search(self, capsys):
        assert main(["compile", "a & b", "--vtree", "search"]) == 0

    def test_compile_constant(self, capsys):
        assert main(["compile", "1"]) == 0
        assert "constant" in capsys.readouterr().out

    def test_compile_ddnnf_backend(self, capsys):
        assert main(["compile", "(a & b) | c", "--backend", "ddnnf"]) == 0
        out = capsys.readouterr().out
        assert "ddnnf (via natural)" in out
        assert "friendly decomposition:" in out
        assert "models: 5 / 2^3" in out

    def test_compile_race_backend(self, capsys):
        assert main(["compile", "(a & b) | c", "--backend", "race"]) == 0
        out = capsys.readouterr().out
        assert "race (via natural)" in out
        assert "models: 5 / 2^3" in out

    def test_compile_minimize_is_the_dynamic_strategy(self, capsys):
        formula = "(a & b) | (b & c)"
        assert main(["compile", formula, "--backend", "apply", "--minimize"]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("apply (via"))
        assert "via dynamic:best-of" in row
        expected = Compiler("apply", DynamicStrategy(seed="best-of")).compile(
            parse_formula(formula)
        )
        assert row.split()[-2:] == [str(expected.size), str(expected.width)]

    def test_compile_minimize_rejects_explicit_vtree(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "(a & b) | c", "--backend", "apply",
                  "--minimize", "--vtree", "right"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --vtree")
        assert captured.err.count("\n") == 1

    def test_compile_vtree_defaults_to_balanced(self, capsys):
        assert main(["compile", "(a & b) | c", "--backend", "apply"]) == 0
        assert "apply (via balanced vtree)" in capsys.readouterr().out


class TestCtw:
    def test_ctw_literal(self, capsys):
        assert main(["ctw", "x"]) == 0
        assert "ctw = 0" in capsys.readouterr().out

    def test_ctw_xor(self, capsys):
        assert main(["ctw", "(x & ~y) | (~x & y)"]) == 0
        assert "ctw = 2" in capsys.readouterr().out

    def test_ctw_budget_exhausted(self, capsys):
        rc = main(["ctw", "(x & ~y) | (~x & y)", "--max-gates", "1"])
        assert rc == 1


class TestQuery:
    def test_inversion_free(self, capsys):
        assert main(["query", "R(x),S(x,y)", "--domain", "2"]) == 0
        out = capsys.readouterr().out
        assert "none" in out and "P(q)" in out

    def test_inversion_reported(self, capsys):
        assert main(["query", "R(x),S1(x,y) | S1(x,y),T(y)", "--domain", "2"]) == 0
        assert "length 1" in capsys.readouterr().out

    def test_query_ddnnf_backend_exact(self, capsys):
        assert main(["query", "R(x),S(x,y)", "--domain", "2",
                     "--backend", "ddnnf", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "lineage d-DNNF size" in out
        assert "39/64" in out


class TestEngineUpdates:
    def test_engine_update_reevaluates_and_reports_counters(self, capsys):
        assert main(["engine", "R(x),S(x,y); S(x,y)", "--domain", "2",
                     "--update", "weight:R:1:0.8",
                     "--update", "delete:S:1,2",
                     "--update", "insert:S:2,3:0.9"]) == 0
        out = capsys.readouterr().out
        assert "after 3 update(s)" in out
        assert "update counters:" in out
        assert "updates_applied=3" in out
        assert "update_recompiles=0" in out

    def test_engine_update_parallel(self, capsys):
        assert main(["engine", "R(x),S(x,y); S(x,y)", "--domain", "2",
                     "--workers", "2", "--parallel-mode", "threads",
                     "--update", "weight:R:1:0.8"]) == 0
        out = capsys.readouterr().out
        assert "after 1 update(s)" in out
        assert "updates_applied=1" in out

    def test_engine_parallel_batch_longer_than_default_admission(self, capsys):
        # 1100 queries exceed a service's default max_in_flight of 1024;
        # the sharded CLI path admits the whole workload as one batch.
        workload = "; ".join(["R(x)", "S(x,y)"] * 550)
        assert main(["engine", workload, "--domain", "2", "--exact",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "engine: 1100 queries" in out
        assert "engine_cache_hits=1098" in out

    def test_engine_update_bad_spec(self, capsys):
        # Malformed kind, unparsable and out-of-range probabilities, and a
        # tuple the database lacks: each is refused before anything runs.
        for spec in ("upsert:R:1:0.5", "weight:R:1:abc", "weight:R:1:1.5",
                     "delete:S:9,9"):
            with pytest.raises(SystemExit) as exc:
                main(["engine", "R(x),S(x,y)", "--domain", "2",
                      "--update", spec])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: --update {spec!r}: ")
            assert captured.err.count("\n") == 1

    def test_engine_update_specs_replay_in_order(self, capsys):
        # A delete of a tuple an earlier spec inserted is valid.
        assert main(["engine", "R(x),S(x,y)", "--domain", "2",
                     "--update", "insert:S:2,3:0.9",
                     "--update", "delete:S:2,3"]) == 0
        assert "updates_applied=2" in capsys.readouterr().out


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["query", "R(x,,S(", "--domain", "2"],
        ["engine", "R(x),S(x,y); R(x,,S(", "--domain", "2"],
        ["compile", "(a & b"],
    ])
    def test_parse_error_exits_2_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestServe:
    def test_serve_exact_sessions_and_stats(self, capsys):
        assert main(["serve", "R(x),S(x,y); S(x,y)", "--domain", "2",
                     "--sessions", "3", "--repeats", "2", "--workers", "2",
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "serve: 2 queries x 3 sessions x 2 repeats" in out
        assert "service stats:" in out
        assert "service_queries=12" in out

    def test_serve_single_session_cache_counters(self, capsys):
        # One sequential session: repeat rounds are deterministic hits.
        assert main(["serve", "R(x),S(x,y); S(x,y)", "--domain", "2",
                     "--sessions", "1", "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "cache_hits=4" in out and "cache_misses=2" in out

    def test_serve_empty_workload(self):
        assert main(["serve", " ; ", "--domain", "2"]) == 1


class TestIsa:
    def test_isa_small(self, capsys):
        assert main(["isa", "1", "2", "--show-vtree"]) == 0
        out = capsys.readouterr().out
        assert "ISA_5" in out and "z4" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


class TestReportUtil:
    def test_format_table(self):
        from repro.util.report import format_table

        text = format_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "333" in text and "22" in text

    def test_report_prints(self, capsys):
        from repro.util.report import report

        report("X", ["c"], [[9]])
        assert "== X ==" in capsys.readouterr().out

"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.instance import Instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChaseCommand:
    def test_inline_mapping(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chase",
            "--mapping", "P(x, y, z) -> Q(x, y) & R(y, z)",
            "--instance", "P(a, b, c)",
        )
        assert code == 0
        assert "Q(a, b)" in out and "R(b, c)" in out

    def test_mapping_from_file(self, capsys, tmp_path):
        path = tmp_path / "deps.txt"
        path.write_text("P(x) -> Q(x)\n")
        code, out, _ = run_cli(
            capsys, "chase", "--mapping", str(path), "--instance", "P(a)"
        )
        assert code == 0
        assert "Q(a)" in out

    def test_oblivious_variant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chase",
            "--mapping", "P(x) -> EXISTS z . Q(x, z)",
            "--instance", "P(a), Q(a, b)",
            "--variant", "oblivious",
        )
        assert code == 0


class TestReverseCommand:
    def test_tgd_reverse(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reverse",
            "--mapping", "Q(x, z) & Q(z, y) -> P(x, y)",
            "--instance", "Q(a, m), Q(m, b)",
        )
        assert code == 0
        assert "P(a, b)" in out

    def test_disjunctive_reverse_lists_branches(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reverse",
            "--mapping", "P'(x, x) -> T(x) | P(x, x)",
            "--instance", "P'(a, a)",
        )
        assert code == 0
        assert "[0]" in out and "[1]" in out


class TestAuditCommand:
    def test_extended_invertible_mapping_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--mapping", "P(x, y) -> P'(x, y)"
        )
        assert code == 0
        assert "True" in out

    def test_lossy_mapping_exit_one_with_counterexample(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--mapping", "P(x) -> R(x); Q(x) -> R(x)"
        )
        assert code == 1
        assert "counterexample" in out

    def test_reverse_verification(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--mapping", "P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)",
            "--reverse", "Q(x, z) & Q(z, y) -> P(x, y)",
        )
        assert code == 0
        assert "chase-inverse:          True" in out


class TestRecoverCommand:
    def test_theorem_5_2_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "recover",
            "--mapping", "P(x, y) -> P'(x, y); T(x) -> P'(x, x)",
        )
        assert code == 0
        assert "P'(v0, v1) & v0 != v1 -> P(v0, v1)" in out
        assert "P'(v0, v0) -> P(v0, v0) | T(v0)" in out

    def test_non_full_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "recover", "--mapping", "P(x) -> Q(x, z)"
        )
        assert code == 2
        assert "error" in err


class TestAnswerCommand:
    def test_with_computed_recovery(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "answer",
            "--mapping", "P(x, y) -> P'(x, y); T(x) -> P'(x, x)",
            "--instance", "P(1, 2), T(3)",
            "--query", "q(x, y) :- P(x, y)",
        )
        assert code == 0
        assert "(1, 2)" in out

    def test_no_certain_answers_message(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "answer",
            "--mapping", "P(x) -> R(x); Q(x) -> R(x)",
            "--instance", "P(0)",
            "--query", "q(x) :- P(x)",
        )
        assert code == 0
        assert "no certain answers" in out

    def test_explicit_recovery(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "answer",
            "--mapping", "P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)",
            "--recovery", "Q(x, z) & Q(z, y) -> P(x, y)",
            "--instance", "P(a, b)",
            "--query", "q(x, y) :- P(x, y)",
        )
        assert code == 0
        assert "(a, b)" in out


class TestTraceFlag:
    def test_chase_writes_jsonl_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.jsonl"
        code, out, err = run_cli(
            capsys,
            "chase",
            "--mapping", "P(x, y, z) -> Q(x, y) & R(y, z)",
            "--instance", "P(a, b, c)",
            "--trace", str(trace_path),
        )
        assert code == 0
        assert "trace:" in err and str(trace_path) in err
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        kinds = {l["kind"] for l in lines}
        assert "trigger_fired" in kinds and "span" in kinds

    def test_stats_include_tracer_footer_when_tracing(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "chase",
            "--mapping", "P(x) -> Q(x)",
            "--instance", "P(a)",
            "--trace", str(tmp_path / "t.jsonl"),
            "--stats",
        )
        assert code == 0
        assert "tracer:" in err
        assert "events.trigger_fired" in err

    def test_batch_chase_trace_covers_all_items(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "batch.jsonl"
        code, _, _ = run_cli(
            capsys,
            "chase",
            "--mapping", "P(x) -> Q(x)",
            "--instance", "P(a)",
            "--instance", "P(b)",
            "--jobs", "2",
            "--trace", str(trace_path),
        )
        assert code == 0
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        fired = [l for l in lines if l["kind"] == "trigger_fired"]
        assert len(fired) == 2


class TestExplainCommand:
    MAPPING = "P(x, y) -> Q(x, y); Q(x, y) -> S(x)"

    def test_explains_all_generated_facts_by_default(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            "--mapping", self.MAPPING,
            "--instance", "P(a, b)",
        )
        assert code == 0
        assert "S(a)" in out and "Q(a, b)" in out
        assert "[input]" in out
        assert "via tgd[" in out

    def test_explains_named_fact(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            "--mapping", self.MAPPING,
            "--instance", "P(a, b)",
            "--fact", "S(a)",
        )
        assert code == 0
        assert out.count("via tgd[") >= 2, "tree expands to the premise firing"
        assert "P(a, b)" in out

    def test_unknown_fact_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "explain",
            "--mapping", self.MAPPING,
            "--instance", "P(a, b)",
            "--fact", "S(zzz)",
        )
        assert code == 2
        assert "no derivation recorded" in err

    def test_saturated_instance_message(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            "--mapping", "P(x) -> Q(x)",
            "--instance", "P(a), Q(a)",
        )
        assert code == 0
        assert "no generated facts" in out

    def test_explain_with_trace_file(self, capsys, tmp_path):
        trace_path = tmp_path / "explain.jsonl"
        code, _, err = run_cli(
            capsys,
            "explain",
            "--mapping", self.MAPPING,
            "--instance", "P(a, b)",
            "--trace", str(trace_path),
        )
        assert code == 0
        assert trace_path.exists()
        assert "trace:" in err

    def test_nonterminating_mapping_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "explain",
            "--mapping", "P(x, y) -> EXISTS z . P(y, z)",
            "--instance", "P(a, b)",
        )
        assert code == 3
        assert "did not terminate" in err


class TestGovernanceFlags:
    RECURSIVE = "P(x, y) -> EXISTS z . P(y, z)"

    def test_max_rounds_partial_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys,
            "chase",
            "--mapping", self.RECURSIVE,
            "--instance", "P(a, b)",
            "--max-rounds", "3",
        )
        assert code == 0
        assert "P(" in out
        assert "partial:" in err and "rounds" in err

    def test_no_limits_still_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "chase",
            "--mapping", self.RECURSIVE,
            "--instance", "P(a, b)",
        )
        assert code == 3
        assert "did not terminate" in err

    def test_deadline_partial(self, capsys):
        code, _, err = run_cli(
            capsys,
            "chase",
            "--mapping", self.RECURSIVE,
            "--instance", "P(a, b)",
            "--deadline", "0",
        )
        assert code == 0
        assert "partial:" in err and "deadline" in err

    def test_batch_fault_isolation_exit_5(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@1")
        code, out, err = run_cli(
            capsys,
            "chase",
            "--mapping", "P(x, y) -> Q(x, y)",
            "--instance", "P(a, b)",
            "--instance", "P(c, d)",
            "--instance", "P(e, f)",
            "--on-error", "skip",
        )
        assert code == 5
        assert "[0]" in out and "Q(a, b)" in out and "Q(e, f)" in out
        assert "[1] error:" in err and "FaultInjected" in err

    def test_batch_retries_recover(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@1")
        code, out, err = run_cli(
            capsys,
            "chase",
            "--mapping", "P(x, y) -> Q(x, y)",
            "--instance", "P(a, b)",
            "--instance", "P(c, d)",
            "--on-error", "skip",
            "--retries", "1",
        )
        assert code == 0
        assert "[1]" in out and "Q(c, d)" in out
        assert "error:" not in err

    def test_reverse_batch_fault_isolation(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@0")
        code, out, err = run_cli(
            capsys,
            "reverse",
            "--mapping", "Q(x, y) -> P(x, y)",
            "--instance", "Q(a, b)",
            "--instance", "Q(c, d)",
            "--on-error", "skip",
        )
        assert code == 5
        assert "[0] error:" in err
        assert "[1]" in out and "P(c, d)" in out

    def test_max_branches_partial_reverse(self, capsys):
        code, out, err = run_cli(
            capsys,
            "reverse",
            "--mapping",
            "T(x) -> A(x) | B(x); T(x) -> C(x) | D(x); T(x) -> E(x) | F(x)",
            "--instance", "T(a)",
            "--max-branches", "3",
        )
        assert code == 0
        assert "partial:" in err and "branches" in err


def test_cli_parse_instances_loads_selected_backend(tmp_path):
    import argparse

    from repro.cli import _parse_instances

    args = argparse.Namespace(
        instance=["P(a, b), Q(c)", "R(x, 1)"],
        store=f"sqlite:{tmp_path / 'cli.db'}",
    )
    loaded = _parse_instances(args)
    assert [type(inst.store).__name__ for inst in loaded] == [
        "SqliteStore",
        "SqliteStore",
    ]
    assert loaded[0] == Instance.parse("P(a, b), Q(c)")
    assert loaded[1] == Instance.parse("R(x, 1)")


class TestParserReuse:
    ARGS = (
        "chase", "--mapping", "P(x) -> Q(x)", "--instance", "P(a)",
        "--no-registry",
    )

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        import repro.cli as cli

        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                code, out, _ = run_cli(capsys, *self.ARGS)
                assert code == 0 and "Q(a)" in out
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_metrics_env_is_read_per_command(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_METRICS_OUT", raising=False)
        # The shared parser now exists, built without the variable.
        assert run_cli(capsys, *self.ARGS)[0] == 0
        path = tmp_path / "env.prom"
        monkeypatch.setenv("REPRO_METRICS_OUT", str(path))
        code, _, err = run_cli(capsys, *self.ARGS)
        assert code == 0 and path.read_text().endswith("# EOF\n")
        assert f"metrics: -> {path}" in err
        path.unlink()
        monkeypatch.delenv("REPRO_METRICS_OUT")
        assert run_cli(capsys, *self.ARGS)[0] == 0
        assert not path.exists()

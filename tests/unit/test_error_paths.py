"""Edge-case and failure-injection tests across modules.

The production contract under failure: loud, typed errors with
actionable messages — never silently wrong chase results.
"""

import pytest

from repro.chase.disjunctive import disjunctive_chase, reverse_disjunctive_chase
from repro.chase.standard import ChaseNonTermination, chase
from repro.homs.quotient import QuotientExplosion
from repro.instance import Instance
from repro.limits import Limits
from repro.logic.atoms import atom
from repro.logic.dependencies import Tgd
from repro.mappings.schema_mapping import SchemaMapping
from repro.parsing.parser import ParseError, parse_dependency


class TestChaseGuards:
    def test_disjunctive_chase_round_guard(self):
        # A genuinely diverging tgd: every firing creates a new trigger.
        dep = parse_dependency("A(x) -> EXISTS y . E(x, y) & A(y)")
        with pytest.raises((ChaseNonTermination, RuntimeError)):
            disjunctive_chase(
                Instance.parse("A(a)"),
                [dep],
                limits=Limits(max_rounds=4, max_branches=50, on_exhausted="raise"),
            )

    def test_lazy_disjunct_reuse_terminates(self):
        # The same shape WITH an escape disjunct quiesces: the recursive
        # disjunct is satisfied by any existing A fact once one exists.
        dep = parse_dependency("A(x) -> (EXISTS y . A(y)) | B(x)")
        branches = disjunctive_chase(
            Instance.parse("A(a)"),
            [dep],
            limits=Limits(max_rounds=8, on_exhausted="raise"),
        )
        assert branches

    def test_reverse_chase_quotient_guard(self):
        dep = parse_dependency("P'(x, y) -> P(x, y)")
        many_nulls = Instance.parse(
            ", ".join(f"P'(A{i}, B{i})" for i in range(5))
        )
        with pytest.raises(QuotientExplosion):
            reverse_disjunctive_chase(
                many_nulls, [dep], result_relations=["P"], max_nulls=3
            )

    def test_quotient_guard_can_be_raised(self):
        dep = parse_dependency("P'(x, y) -> P(x, y)")
        four_nulls = Instance.parse("P'(A0, B0), P'(A1, B1)")
        branches = reverse_disjunctive_chase(
            four_nulls, [dep], result_relations=["P"], max_nulls=4
        )
        assert branches

    def test_chase_rejects_mixed_language(self):
        dep = parse_dependency("R(x) -> P(x) | Q(x)")
        with pytest.raises(TypeError):
            chase(Instance.parse("R(a)"), [dep])


class TestParserErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "P(x -> Q(x)",
            "P(x) -> ",
            "-> Q(x)",
            "P(x) Q(x)",
            "P(x) -> Q(x) | ",
            "P(x) & -> Q(x)",
            "P(x) -> EXISTS . Q(x)",
        ],
    )
    def test_malformed_dependencies_raise(self, text):
        with pytest.raises(ParseError):
            parse_dependency(text)

    def test_error_message_names_the_input(self):
        with pytest.raises(ParseError) as err:
            parse_dependency("P(x @ y) -> Q(x)")
        assert "P(x @ y)" in str(err.value)


class TestSchemaMappingErrors:
    def test_chase_of_disjunctive_mapping_fails_loudly(self):
        m = SchemaMapping.from_text("R(x) -> P(x) | Q(x)")
        with pytest.raises(TypeError):
            m.chase(Instance.parse("R(a)"))

    def test_source_fact_outside_schema_is_ignored_consistently(self):
        # Facts over relations the mapping does not read simply do not
        # trigger anything — but they survive the full chase instance.
        m = SchemaMapping.from_text("P(x) -> Q(x)")
        result = m.exchange(Instance.parse("P(a), Zzz(b)")).to_chase_result()
        assert Instance.parse("Q(a)") <= result.instance
        assert Instance.parse("Zzz(b)") <= result.instance

    def test_empty_mapping_is_the_total_relation(self):
        # Σ = ∅ is legal (every pair satisfies it); the chase is a no-op.
        empty = SchemaMapping.from_text("")
        assert empty.satisfies(Instance.parse("P(a)"), Instance())
        assert empty.chase(Instance.parse("P(a)")).is_empty()


class TestTgdValidation:
    def test_conclusion_var_fine_premise_guard_var_not(self):
        from repro.logic.guards import Inequality
        from repro.terms import Var

        with pytest.raises(ValueError):
            Tgd(
                (atom("P", "x"),),
                (atom("Q", "x"),),
                (Inequality(Var("x"), Var("ghost")),),
            )


class TestCliErrors:
    def test_unreadable_mapping_argument(self, capsys):
        from repro.cli import main

        code = main(["chase", "--mapping", "not a mapping @@", "--instance", "P(a)"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: in 'not a mapping @@'")

    @pytest.mark.parametrize(
        "mapping, instance",
        [
            ("P(x, y) -> (z, y)", "P(a, b)"),
            ("P(x, y) & s != x -> Q(x)", "P(a, b)"),
            ("P(x) -> Q(x); P(x, y) -> Q(x)", "P(a, b)"),
            ("P(x, y) -> Q(x, y)", "P(a b"),
            ("P(x, y) -> Q(x, y)", "P(a, b"),
            ("P(x, y) -> Q(x, y)", "P(a b)"),
        ],
    )
    def test_malformed_input_exits_2_with_one_error_line(
        self, capsys, mapping, instance
    ):
        from repro.cli import main

        code = main([
            "chase", "--no-registry", "--mapping", mapping, "--instance", instance
        ])
        err = capsys.readouterr().err
        assert code == 2, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "Traceback" not in err

    def test_compose_error_exit_code(self, capsys):
        from repro.cli import main

        code = main([
            "compose",
            "--first", "A(x) -> B(x, z)",  # not full
            "--second", "B(x, y) -> C(x)",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_compose_happy_path(self, capsys):
        from repro.cli import main

        code = main([
            "compose",
            "--first", "A(x, y) -> B(x, y)",
            "--second", "B(x, z) & B(z, y) -> C(x, y)",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "A(x, y) & A(y, z) -> C(x, z)" in out

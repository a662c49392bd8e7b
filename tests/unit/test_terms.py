"""Unit tests for the term algebra."""

import pytest

from repro.terms import (
    Const,
    Null,
    NullFactory,
    Var,
    is_term,
    is_value,
    term_sort_key,
    value_from_token,
    value_sort_key,
)


class TestConst:
    def test_equality_by_payload(self):
        assert Const("a") == Const("a")
        assert Const("a") != Const("b")
        assert Const(1) != Const("1")

    def test_is_hashable(self):
        assert len({Const("a"), Const("a"), Const("b")}) == 2

    def test_kind_flags(self):
        assert Const("a").is_const
        assert not Const("a").is_null

    def test_str(self):
        assert str(Const("a")) == "a"
        assert str(Const(3)) == "3"


class TestNull:
    def test_equality_by_name(self):
        assert Null("X") == Null("X")
        assert Null("X") != Null("Y")

    def test_distinct_from_const_with_same_payload(self):
        assert Null("a") != Const("a")

    def test_kind_flags(self):
        assert Null("X").is_null
        assert not Null("X").is_const

    def test_str_marks_nulls(self):
        assert str(Null("X")) == "_X"


class TestVar:
    def test_equality(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")

    def test_var_is_term_not_value(self):
        assert is_term(Var("x"))
        assert not is_value(Var("x"))

    def test_const_is_both(self):
        assert is_term(Const("a"))
        assert is_value(Const("a"))

    def test_null_is_value_not_term(self):
        assert is_value(Null("X"))
        assert not is_term(Null("X"))


class TestNullFactory:
    def test_fresh_are_distinct(self):
        factory = NullFactory()
        assert factory.fresh() != factory.fresh()

    def test_avoiding_skips_taken_names(self):
        factory = NullFactory.avoiding([Null("N0"), Null("N2"), Const("N1")])
        produced = [factory.fresh() for _ in range(3)]
        assert Null("N0") not in produced
        assert Null("N2") not in produced
        # Const("N1") is not a null, so the name N1 is free.
        assert Null("N1") in produced

    def test_fresh_many(self):
        factory = NullFactory(prefix="Z")
        nulls = factory.fresh_many(5)
        assert len(set(nulls)) == 5
        assert all(n.name.startswith("Z") for n in nulls)

    def test_custom_prefix(self):
        assert NullFactory(prefix="Q").fresh().name.startswith("Q")


class TestValueFromToken:
    def test_lowercase_is_constant(self):
        assert value_from_token("abc") == Const("abc")

    def test_digits_are_int_constants(self):
        assert value_from_token("42") == Const(42)

    def test_uppercase_is_null(self):
        assert value_from_token("X") == Null("X")
        assert value_from_token("Zab") == Null("Zab")

    def test_primed_names(self):
        assert value_from_token("a'") == Const("a'")
        assert value_from_token("X'") == Null("X'")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            value_from_token("")

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            value_from_token("?!")


class TestSortKeys:
    def test_value_sort_key_totally_orders_mixed_values(self):
        values = [Null("B"), Const(2), Const("a"), Null("A"), Const(10)]
        ordered = sorted(values, key=value_sort_key)
        # Constants precede nulls.
        kinds = [v.is_const for v in ordered]
        assert kinds == sorted(kinds, reverse=True)

    def test_term_sort_key_totally_orders_mixed_terms(self):
        terms = [Var("y"), Const("b"), Var("x"), Const(1)]
        ordered = sorted(terms, key=term_sort_key)
        assert ordered[0].is_const if hasattr(ordered[0], "is_const") else True
        # No exception is the main contract; constants first.
        assert isinstance(ordered[0], Const)


class TestTaggedTupleContract:
    """The semantic changes DESIGN.md D13 accepts with tagged tuples."""

    def test_value_equals_its_plain_tagged_tuple(self):
        assert Const(5) == (0, 5)
        assert Null("X") == (1, "X")
        assert Var("x") == (2, "x")
        assert hash(Const(5)) == hash((0, 5))

    def test_values_iterate_as_tag_and_payload(self):
        assert list(Const("a")) == [0, "a"]
        assert tuple(Null("X")) == (1, "X")

    def test_kinds_order_constants_nulls_variables(self):
        mixed = [Var("a"), Null("a"), Const("a"), Null("B"), Const("b")]
        assert sorted(mixed) == [
            Const("a"), Const("b"), Null("B"), Null("a"), Var("a")
        ]

    def test_same_kind_order_follows_payload(self):
        assert Const(1) < Const(2) and Null("X") < Null("Y")
        with pytest.raises(TypeError):
            Const(1) < Const("a")

    def test_constructor_keywords_unchanged(self):
        assert Const(value=3) == Const(3)
        assert Null(name="X") == Null("X")
        assert Var(name="x") == Var("x")

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            Const(1).value = 2
        with pytest.raises(AttributeError):
            Null("X").extra = 1

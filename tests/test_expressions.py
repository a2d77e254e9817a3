"""Grammar, evaluation, and error behavior of config expressions."""

import numpy as np
import pytest

from dpobstacle.errors import EvaluationError
from dpobstacle.expressions import (
    Expression,
    compile_expression,
    require_coordinates,
)


def ev(text, x, y=None):
    return float(Expression(text)(x, y))


class TestEvaluation:
    def test_polynomial(self):
        assert ev("x*(1-x)", 0.5) == 0.25

    def test_precedence_power_over_product(self):
        assert ev("1+2*3^2", 0.0) == 19.0

    def test_power_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert ev("-2^2", 0.0) == -4.0

    def test_negative_exponent(self):
        assert ev("2^-3", 0.0) == 0.125

    def test_unary_plus(self):
        assert ev("+x", 3.0) == 3.0

    def test_division(self):
        assert ev("x/4", 1.0) == 0.25

    def test_functions(self):
        assert ev("abs(0-2)", 0.0) == 2.0
        assert ev("exp(0)", 0.0) == 1.0
        assert ev("sin(0)", 0.0) == 0.0
        assert ev("min(2,3)", 0.0) == 2.0
        assert ev("max(2,3)", 0.0) == 3.0

    def test_nested_calls(self):
        assert ev("max(abs(x), min(1, 2))", -3.0) == 3.0

    def test_vectorized_over_arrays(self):
        x = np.linspace(0.0, 1.0, 5)
        out = Expression("x*(1-x)")(x)
        assert out.shape == (5,)
        assert np.allclose(out, x * (1 - x))

    def test_constant_broadcast_to_input_shape(self):
        out = Expression("2")(np.zeros(7))
        assert out.shape == (7,)
        assert np.all(out == 2.0)

    def test_two_variables(self):
        out = Expression("x+2*y")(np.array([1.0]), np.array([3.0]))
        assert out[0] == 7.0

    def test_scientific_number_literals(self):
        assert ev("1e-3 + 2.5E2", 0.0) == pytest.approx(250.001)


class TestVariables:
    def test_variables_attribute(self):
        assert Expression("x+2*y").variables == {"x", "y"}
        assert Expression("3").variables == set()

    def test_y_without_second_coordinate(self):
        with pytest.raises(EvaluationError):
            Expression("x+y")(1.0)

    def test_coordinates_of_the_mesh_dimension(self):
        expr = Expression("x+2*y")
        assert require_coordinates(expr, 2) is expr
        assert require_coordinates(Expression("sin(x)"), 1).text == "sin(x)"
        with pytest.raises(EvaluationError,
                           match=r"\['y'\] not available on a 1D mesh"):
            require_coordinates(expr, 1)


class TestErrors:
    @pytest.mark.parametrize("text", [
        "1+", "(1", "1 2", "z+1", "min(1)", "abs(1,2)", "*3", "x &",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(EvaluationError):
            compile_expression(text)

    def test_division_by_zero_constant(self):
        with pytest.raises(EvaluationError):
            Expression("1/0")(0.0)

    def test_division_by_zero_from_variable(self):
        with pytest.raises(EvaluationError):
            Expression("1/x")(0.0)

    def test_invalid_power(self):
        with pytest.raises(EvaluationError):
            Expression("(0-2)^0.5")(0.0)

    def test_overflow(self):
        with pytest.raises(EvaluationError):
            Expression("exp(x)")(1.0e4)

    @pytest.mark.parametrize("text", [
        "-" * 3000 + "1",
        "(" * 300 + "2" + ")" * 300,
        "2^" * 2000 + "1",
        "abs(" * 400 + "x" + ")" * 400,
        "+".join(["x"] * 5000),
    ], ids=["signs", "parentheses", "powers", "calls", "long-sum"])
    def test_nesting_beyond_the_recursion_limit(self, text):
        # the parser fails on deep nesting, the evaluation on a long chain
        with pytest.raises(EvaluationError) as err:
            compile_expression(text)(0.5)
        assert "nested too deeply" in str(err.value)

    def test_moderate_nesting_evaluates(self):
        assert compile_expression("-" * 100 + "1")(0.0) == 1.0
        assert compile_expression("(" * 50 + "x" + ")" * 50)(2.0) == 2.0


class TestIdentity:
    def test_equality_and_hash(self):
        assert Expression("x+1") == Expression("x+1")
        assert Expression("x+1") != Expression("1+x")
        assert len({Expression("x"), Expression("x"), Expression("y")}) == 2

    def test_repr_carries_source(self):
        assert "x*(1-x)" in repr(Expression("x*(1-x)"))

    def test_surrounding_whitespace_stripped(self):
        assert Expression("  x+1 ").text == "x+1"

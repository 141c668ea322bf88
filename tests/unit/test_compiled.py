"""Tests of the compiled numeric views in repro.polynomial.compiled."""

import numpy as np
import pytest

from repro.errors import PolynomialError
from repro.polynomial.compiled import (
    CompiledPolynomial,
    lower_block,
    lower_quadratic,
)
from repro.polynomial.parse import parse_polynomial


POINTS = [
    {"x": 0.0, "y": 0.0, "z": 0.0},
    {"x": 1.0, "y": -2.0, "z": 3.0},
    {"x": 0.5, "y": 4.0, "z": -1.25},
]


def test_compiled_polynomial_matches_evaluate_float():
    polynomial = parse_polynomial("2*x^2*y - 3*y*z + z^3 - 1/2")
    compiled = CompiledPolynomial.from_polynomial(polynomial, ["x", "y", "z"])
    for valuation in POINTS:
        point = np.array([valuation["x"], valuation["y"], valuation["z"]])
        assert compiled.evaluate(point) == pytest.approx(polynomial.evaluate_float(valuation))
        assert compiled.evaluate_valuation(valuation) == pytest.approx(
            polynomial.evaluate_float(valuation)
        )


def test_compiled_polynomial_batch_evaluation():
    polynomial = parse_polynomial("x*y + 2*x - 7")
    compiled = CompiledPolynomial.from_polynomial(polynomial, ["x", "y"])
    points = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
    values = compiled.evaluate_many(points)
    expected = [polynomial.evaluate_float({"x": p[0], "y": p[1]}) for p in points]
    assert values == pytest.approx(expected)


def test_compiled_zero_polynomial():
    compiled = CompiledPolynomial.from_polynomial(parse_polynomial("0"), ["x"])
    assert compiled.evaluate(np.array([5.0])) == 0.0
    assert compiled.evaluate_many(np.zeros((3, 1))) == pytest.approx([0.0, 0.0, 0.0])


def test_compiled_polynomial_rejects_unknown_variable():
    with pytest.raises(PolynomialError):
        CompiledPolynomial.from_polynomial(parse_polynomial("x + y"), ["x"])


def test_compiled_valuation_missing_variable():
    compiled = CompiledPolynomial.from_polynomial(parse_polynomial("x + y"), ["x", "y"])
    with pytest.raises(PolynomialError):
        compiled.evaluate_valuation({"x": 1.0})


def test_lower_block_matches_per_polynomial_evaluation():
    polynomials = [
        parse_polynomial("x^2 - y"),
        parse_polynomial("3"),
        parse_polynomial("0"),
        parse_polynomial("x*y*z - z"),
    ]
    block = lower_block(polynomials, ["x", "y", "z"])
    assert block.row_count == 4
    for valuation in POINTS:
        point = np.array([valuation["x"], valuation["y"], valuation["z"]])
        values = block.evaluate_all(point)
        expected = [p.evaluate_float(valuation) for p in polynomials]
        assert values == pytest.approx(expected)
        assert block.evaluate_assignment(valuation) == pytest.approx(expected)


def test_lower_block_infers_variable_order():
    block = lower_block([parse_polynomial("b + a"), parse_polynomial("c^2")])
    assert block.variables == ("a", "b", "c")


def test_lower_quadratic_reconstructs_values():
    polynomials = [
        parse_polynomial("x^2 + 2*x*y - 3*x + 5"),
        parse_polynomial("y^2 - 1/4"),
        parse_polynomial("7*x"),
    ]
    index = {"x": 0, "y": 1}
    triplets = lower_quadratic(polynomials, index)
    point = np.array([1.5, -2.0])
    values = triplets.constants.copy()
    np.add.at(values, triplets.linear_rows, triplets.linear_values * point[triplets.linear_cols])
    np.add.at(
        values,
        triplets.quad_rows,
        triplets.quad_values * point[triplets.quad_left] * point[triplets.quad_right],
    )
    expected = [p.evaluate_float({"x": 1.5, "y": -2.0}) for p in polynomials]
    assert values == pytest.approx(expected)


def test_lower_quadratic_rejects_cubic_terms():
    with pytest.raises(PolynomialError):
        lower_quadratic([parse_polynomial("x^3")], {"x": 0})

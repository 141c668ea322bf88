"""Exact multivariate polynomial arithmetic over the rationals.

This package is the algebraic substrate of the whole library: program
assignments, guards, pre/post-conditions, invariant templates and the
Positivstellensatz certificates are all represented as
:class:`~repro.polynomial.polynomial.Polynomial` values.

Design notes
------------
* Coefficients are :class:`fractions.Fraction` so the whole Steps 1-3
  reduction of the paper is exact; floats only appear inside the numeric
  Step-4 solvers.
* Template unknowns (the paper's *s-*, *t-*, *l-* and *eps-variables*) are
  ordinary variables living in the same ring as program variables.  The
  :func:`~repro.polynomial.polynomial.Polynomial.collect` operation splits a
  polynomial by the monomials over a chosen variable subset, which is exactly
  the "equate coefficients of corresponding monomials" step of the paper.
"""

from repro.polynomial.compiled import (
    CompiledBlock,
    CompiledPolynomial,
    QuadraticTriplets,
    lower_block,
    lower_quadratic,
)
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import (
    MonomialOrder,
    count_monomials_up_to_degree,
    grevlex_key,
    grlex_key,
    lex_key,
    monomials_of_degree,
    monomials_up_to_degree,
)
from repro.polynomial.parse import parse_polynomial
from repro.polynomial.polynomial import Polynomial
from repro.polynomial.sos import (
    GramEncoding,
    gram_matrix_encoding,
    sos_basis,
)

__all__ = [
    "CompiledBlock",
    "CompiledPolynomial",
    "Monomial",
    "MonomialOrder",
    "Polynomial",
    "QuadraticTriplets",
    "lower_block",
    "lower_quadratic",
    "GramEncoding",
    "gram_matrix_encoding",
    "sos_basis",
    "parse_polynomial",
    "lex_key",
    "grlex_key",
    "grevlex_key",
    "monomials_up_to_degree",
    "monomials_of_degree",
    "count_monomials_up_to_degree",
]

"""Sum-of-squares (SOS) machinery: Gram matrices and Cholesky encodings.

The paper (Section 3.1, Theorems 3.4 and 3.5) reduces "``h`` is a sum of
squares" to the existence of a symmetric positive-semidefinite Gram matrix
``Q`` with ``h = y^T Q y``, and then to the existence of a lower-triangular
``L`` with non-negative diagonal such that ``Q = L L^T``.  This module builds
that encoding symbolically (with fresh *l-variables*).  The exact, solver-free
check of a concrete SOS witness lives in :mod:`repro.certify.certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import PolynomialError
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import monomials_up_to_degree
from repro.polynomial.polynomial import Polynomial


@dataclass(frozen=True)
class GramEncoding:
    """Symbolic encoding of "``h`` is a sum of squares of degree <= 2*half_degree".

    Attributes
    ----------
    basis:
        The vector ``y`` of monomials of degree at most ``half_degree``.
    l_variable_names:
        Names of the fresh entries of the lower-triangular matrix ``L``,
        indexed ``[row][col]`` for ``col <= row``.
    diagonal_names:
        The names on the diagonal of ``L``; these must be constrained to be
        non-negative (Theorem 3.5).
    polynomial:
        The expansion of ``y^T L L^T y`` as a :class:`Polynomial` over the
        original variables *and* the l-variables.  It is quadratic in the
        l-variables.
    """

    basis: tuple[Monomial, ...]
    l_variable_names: tuple[tuple[str, ...], ...]
    diagonal_names: tuple[str, ...]
    polynomial: Polynomial = field(repr=False)

    @property
    def dimension(self) -> int:
        """Size of the Gram matrix (length of the monomial basis)."""
        return len(self.basis)

    def all_l_names(self) -> list[str]:
        """All l-variable names, row by row."""
        return [name for row in self.l_variable_names for name in row]


def sos_basis(variables: Sequence[str], max_degree: int) -> list[Monomial]:
    """The monomial basis used for SOS polynomials of degree at most ``max_degree``.

    A sum of squares has even degree; the basis therefore contains all
    monomials of degree at most ``max_degree // 2``.
    """
    if max_degree < 0:
        raise PolynomialError(f"SOS degree bound must be non-negative, got {max_degree}")
    return monomials_up_to_degree(variables, max_degree // 2)


def gram_matrix_encoding(
    variables: Sequence[str], max_degree: int, prefix: str
) -> GramEncoding:
    """Build the Cholesky encoding of an unknown SOS polynomial.

    Parameters
    ----------
    variables:
        Program variables the SOS polynomial ranges over.
    max_degree:
        Upper bound on the degree of the SOS polynomial (the paper's
        technical parameter Upsilon for the multiplier polynomials).
    prefix:
        Prefix used for the fresh l-variable names, e.g. ``"l_c3_h2"``.

    Returns
    -------
    GramEncoding
        The basis, the fresh variable names and the symbolic expansion of
        ``y^T L L^T y``.
    """
    basis = sos_basis(variables, max_degree)
    dimension = len(basis)
    names: list[tuple[str, ...]] = []
    for row in range(dimension):
        row_names = tuple(f"{prefix}_{row}_{col}" for col in range(row + 1))
        names.append(row_names)
    diagonal = tuple(names[row][row] for row in range(dimension))

    # Expand y^T L L^T y = sum_{j} (sum_{i >= j} l_{i,j} * y_i)^2 column by column,
    # which keeps the intermediate polynomials small.
    expansion = Polynomial.zero()
    for col in range(dimension):
        column_form = Polynomial.zero()
        for row in range(col, dimension):
            term = Polynomial.variable(names[row][col]) * Polynomial.from_monomial(basis[row])
            column_form = column_form + term
        expansion = expansion + column_form * column_form

    return GramEncoding(
        basis=tuple(basis),
        l_variable_names=tuple(names),
        diagonal_names=diagonal,
        polynomial=expansion,
    )

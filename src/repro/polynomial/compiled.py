"""Compiled numeric views of polynomials: flat coefficient/exponent arrays.

The exact :class:`~repro.polynomial.polynomial.Polynomial` representation is
what Steps 1-3 need, but the Step-4 numeric solvers evaluate the same
polynomials millions of times over float vectors.  This module lowers
polynomials once into numpy arrays so that every subsequent evaluation is a
handful of vectorised operations with no ``Fraction`` arithmetic at all:

* :class:`CompiledPolynomial` — one polynomial, dense exponent matrix; float
  evaluation of single points and of batches of points.
* :class:`CompiledBlock` — many polynomials sharing one variable order,
  evaluated together with a single ``bincount`` reduction (this is what the
  per-constraint loops of the solvers compile to).
* :class:`QuadraticTriplets` / :func:`lower_quadratic` — the degree-<=2
  special case used by the QCLP machinery: constants, linear triplets and
  bilinear triplets, ready to be fed into sparse matrices.
* :class:`CoefficientPool` / :func:`lower_mixed` / :func:`lower_gram_triples` —
  the exact Step-3 lowering: mixed template polynomials become flat exponent
  matrices plus unknown-id and coefficient-pool-id columns, and the Gram/
  Cholesky SOS expansion becomes index triples, so the translation kernel in
  :mod:`repro.invariants.translation` works on integers only while the parent
  keeps the :class:`~fractions.Fraction` coefficients exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, MutableMapping, Sequence

import numpy as np

from repro.errors import PolynomialError
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial


def exponent_rows(
    monomials: Iterable[Monomial], index: Mapping[str, int], width: int
) -> np.ndarray:
    """Dense ``(len(monomials), width)`` exponent matrix over a variable index."""
    rows = []
    for monomial in monomials:
        row = [0] * width
        for var, exp in monomial.items:
            try:
                row[index[var]] = exp
            except KeyError as exc:
                raise PolynomialError(
                    f"variable {var!r} is not part of the compilation variable order"
                ) from exc
        rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), width)


_exponent_rows = exponent_rows


# Reserved slots shared by every pool: the coefficients that translation
# synthesises itself (the -1 of the moved right-hand side and the 1/2 of the
# Gram expansion) get fixed ids so kernels can emit them without a pool lookup.
POOL_PLUS_ONE = 0
POOL_MINUS_ONE = 1
POOL_PLUS_TWO = 2
POOL_MINUS_TWO = 3
_POOL_RESERVED = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))


class CoefficientPool:
    """Deduplicated exact coefficients addressed by integer id.

    Flat kernel arrays carry pool ids instead of numeric values, so index
    arithmetic never touches a :class:`~fractions.Fraction` while assembly can
    recover the exact coefficient of every emitted term.
    """

    __slots__ = ("_values", "_ids")

    def __init__(self) -> None:
        self._values: list[Fraction] = list(_POOL_RESERVED)
        self._ids: dict[Fraction, int] = {value: i for i, value in enumerate(self._values)}

    def add(self, value: Fraction) -> int:
        """The id of ``value``, interning it on first use."""
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        slot = len(self._values)
        self._values.append(value)
        self._ids[value] = slot
        return slot

    def values(self) -> tuple[Fraction, ...]:
        """The id -> coefficient table (reserved slots first)."""
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)


@dataclass(frozen=True)
class MixedTermArrays:
    """A Step-2 template polynomial lowered to flat per-term arrays.

    Each term of a mixed polynomial (program variables times at most one
    template unknown) becomes one row: the program-part exponent vector, the
    unknown id (``-1`` when the term is unknown-free) and the pool id of its
    exact coefficient.
    """

    exponents: np.ndarray  # (terms, program_variables), int64
    unknown_ids: np.ndarray  # (terms,), int64, -1 for unknown-free terms
    coefficient_ids: np.ndarray  # (terms,), int64 into the owning CoefficientPool


def lower_mixed(
    polynomial: Polynomial,
    variables: Sequence[str],
    unknown_index: MutableMapping[str, int],
    pool: CoefficientPool,
    negate: bool = False,
) -> MixedTermArrays:
    """Lower a template polynomial that is linear in its unknowns.

    ``unknown_index`` assigns ids to unknown names on first occurrence and is
    shared across the polynomials of one constraint pair, so conclusion and
    assumptions agree on ids.  ``negate`` bakes the sign of moved right-hand
    sides into the pooled coefficients.
    """
    keep = frozenset(variables)
    index = {name: position for position, name in enumerate(variables)}
    width = len(variables)
    program_parts: list[Monomial] = []
    unknown_ids: list[int] = []
    coefficient_ids: list[int] = []
    for monomial, coefficient in polynomial.items():
        program_part = monomial.restrict(keep)
        unknown_part = monomial.exclude(keep)
        items = unknown_part.items
        if not items:
            unknown_ids.append(-1)
        elif len(items) == 1 and items[0][1] == 1:
            name = items[0][0]
            slot = unknown_index.get(name)
            if slot is None:
                slot = len(unknown_index)
                unknown_index[name] = slot
            unknown_ids.append(slot)
        else:
            raise PolynomialError(
                f"term {monomial} is not linear in the template unknowns; "
                "Step 3 requires degree <= 1 unknown parts"
            )
        program_parts.append(program_part)
        coefficient_ids.append(pool.add(-coefficient if negate else coefficient))
    return MixedTermArrays(
        exponents=exponent_rows(program_parts, index, width),
        unknown_ids=np.asarray(unknown_ids, dtype=np.int64),
        coefficient_ids=np.asarray(coefficient_ids, dtype=np.int64),
    )


def lower_gram_triples(dimension: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index triples of the Cholesky expansion ``sum_c (sum_{r>=c} l_{r,c} y_r)^2``.

    Returns ``(rows_a, rows_b, cols, doubled)`` over all ``c <= r1 <= r2 <
    dimension``: the expansion contributes ``l_{r1,c} * l_{r2,c} * y_{r1} *
    y_{r2}`` with coefficient 2 off the diagonal (``doubled`` marks ``r1 <
    r2``) and 1 on it.  Lower-triangle entries are addressed by the row-major
    triangular index ``r * (r + 1) // 2 + c`` used by the multiplier naming.
    """
    rows_a: list[int] = []
    rows_b: list[int] = []
    cols: list[int] = []
    for col in range(dimension):
        for row_a in range(col, dimension):
            for row_b in range(row_a, dimension):
                cols.append(col)
                rows_a.append(row_a)
                rows_b.append(row_b)
    rows_a_arr = np.asarray(rows_a, dtype=np.int64)
    rows_b_arr = np.asarray(rows_b, dtype=np.int64)
    return (
        rows_a_arr,
        rows_b_arr,
        np.asarray(cols, dtype=np.int64),
        (rows_a_arr != rows_b_arr),
    )


@dataclass(frozen=True)
class CompiledPolynomial:
    """One polynomial lowered to ``coefficients @ prod(point**exponents)`` form."""

    variables: tuple[str, ...]
    coefficients: np.ndarray  # shape (terms,)
    exponents: np.ndarray  # shape (terms, variables), int64

    @staticmethod
    def from_polynomial(
        polynomial: Polynomial, variables: Sequence[str] | None = None
    ) -> "CompiledPolynomial":
        order = tuple(variables) if variables is not None else tuple(sorted(polynomial.variables()))
        index = {name: position for position, name in enumerate(order)}
        monomials = list(polynomial._terms)
        coefficients = np.array(
            [float(polynomial._terms[monomial]) for monomial in monomials], dtype=np.float64
        )
        exponents = _exponent_rows(monomials, index, len(order))
        return CompiledPolynomial(variables=order, coefficients=coefficients, exponents=exponents)

    @property
    def term_count(self) -> int:
        return int(self.coefficients.shape[0])

    def evaluate(self, point: np.ndarray) -> float:
        """Value at one point (a vector in this compilation's variable order)."""
        if not self.term_count:
            return 0.0
        monomial_values = np.prod(np.asarray(point, dtype=np.float64) ** self.exponents, axis=1)
        return float(self.coefficients @ monomial_values)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape ``(k, variables) -> (k,)``."""
        points = np.asarray(points, dtype=np.float64)
        if not self.term_count:
            return np.zeros(points.shape[0])
        powers = points[:, None, :] ** self.exponents[None, :, :]
        return np.prod(powers, axis=2) @ self.coefficients

    def evaluate_valuation(self, valuation: Mapping[str, float]) -> float:
        """Value under a name-to-value mapping (missing names raise)."""
        try:
            point = np.array([float(valuation[name]) for name in self.variables])
        except KeyError as exc:
            raise PolynomialError(f"valuation is missing variable {exc.args[0]!r}") from exc
        return self.evaluate(point)


@dataclass(frozen=True)
class CompiledBlock:
    """Many polynomials over one shared variable order, evaluated together.

    ``rows[t]`` is the polynomial a term belongs to; evaluation computes every
    term's monomial value and reduces per row with ``bincount``.
    """

    variables: tuple[str, ...]
    row_count: int
    rows: np.ndarray  # shape (terms,), int64
    coefficients: np.ndarray  # shape (terms,)
    exponents: np.ndarray  # shape (terms, variables), int64

    def evaluate_all(self, point: np.ndarray) -> np.ndarray:
        """The value of every polynomial at ``point`` (shape ``(row_count,)``)."""
        if not self.rows.size:
            return np.zeros(self.row_count)
        monomial_values = np.prod(np.asarray(point, dtype=np.float64) ** self.exponents, axis=1)
        return np.bincount(
            self.rows, weights=self.coefficients * monomial_values, minlength=self.row_count
        )

    def evaluate_assignment(self, assignment: Mapping[str, float]) -> np.ndarray:
        """The value of every polynomial under a name-to-value mapping."""
        point = np.array([float(assignment.get(name, 0.0)) for name in self.variables])
        return self.evaluate_all(point)


def lower_block(
    polynomials: Sequence[Polynomial], variables: Sequence[str] | None = None
) -> CompiledBlock:
    """Compile many polynomials into one :class:`CompiledBlock`."""
    if variables is None:
        names: set[str] = set()
        for polynomial in polynomials:
            names.update(polynomial.variables())
        variables = sorted(names)
    order = tuple(variables)
    index = {name: position for position, name in enumerate(order)}
    rows: list[int] = []
    coefficients: list[float] = []
    monomials: list[Monomial] = []
    for row, polynomial in enumerate(polynomials):
        for monomial, coefficient in polynomial.items():
            rows.append(row)
            coefficients.append(float(coefficient))
            monomials.append(monomial)
    return CompiledBlock(
        variables=order,
        row_count=len(polynomials),
        rows=np.asarray(rows, dtype=np.int64),
        coefficients=np.asarray(coefficients, dtype=np.float64),
        exponents=_exponent_rows(monomials, index, len(order)),
    )


@dataclass(frozen=True)
class QuadraticTriplets:
    """Degree-<=2 polynomials split into constant, linear and bilinear parts.

    The linear part is ``(rows, cols, values)`` triplets (one per degree-1
    term) and the quadratic part ``(rows, left, right, values)`` triplets (one
    per degree-2 term, with ``left == right`` for squares) — exactly the form
    the sparse-matrix QCLP machinery consumes.
    """

    row_count: int
    constants: np.ndarray
    linear_rows: np.ndarray
    linear_cols: np.ndarray
    linear_values: np.ndarray
    quad_rows: np.ndarray
    quad_left: np.ndarray
    quad_right: np.ndarray
    quad_values: np.ndarray


def lower_quadratic(
    polynomials: Sequence[Polynomial], index: Mapping[str, int]
) -> QuadraticTriplets:
    """Split degree-<=2 polynomials into flat triplet arrays over ``index``."""
    constants = np.zeros(len(polynomials))
    linear_rows: list[int] = []
    linear_cols: list[int] = []
    linear_values: list[float] = []
    quad_rows: list[int] = []
    quad_left: list[int] = []
    quad_right: list[int] = []
    quad_values: list[float] = []

    for row, polynomial in enumerate(polynomials):
        for monomial, coefficient in polynomial.items():
            value = float(coefficient)
            items = monomial.items
            degree = monomial.degree()
            if degree == 0:
                constants[row] += value
            elif degree == 1:
                linear_rows.append(row)
                linear_cols.append(index[items[0][0]])
                linear_values.append(value)
            elif degree == 2:
                quad_rows.append(row)
                if len(items) == 1:
                    column = index[items[0][0]]
                    quad_left.append(column)
                    quad_right.append(column)
                else:
                    quad_left.append(index[items[0][0]])
                    quad_right.append(index[items[1][0]])
                quad_values.append(value)
            else:
                raise PolynomialError(f"polynomial of degree {degree} is not quadratic")

    return QuadraticTriplets(
        row_count=len(polynomials),
        constants=constants,
        linear_rows=np.asarray(linear_rows, dtype=np.int64),
        linear_cols=np.asarray(linear_cols, dtype=np.int64),
        linear_values=np.asarray(linear_values, dtype=np.float64),
        quad_rows=np.asarray(quad_rows, dtype=np.int64),
        quad_left=np.asarray(quad_left, dtype=np.int64),
        quad_right=np.asarray(quad_right, dtype=np.int64),
        quad_values=np.asarray(quad_values, dtype=np.float64),
    )

"""Graded-lexicographic unranking is the exact inverse of ranking.

Step 3 names each coefficient-matching equality by the monomial of its grlex
rank.  :func:`~repro.polynomial.ordering.grlex_unrank` recovers those
monomials from the ranks alone, and the translation's multiplier bases come
from unranking every rank in turn, so both must agree with the symbolic
enumerator :func:`~repro.polynomial.ordering.monomials_up_to_degree` — row
for row, in the same order.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.invariants.translation import _basis_exponents, _rank_strings
from repro.polynomial.compiled import exponent_rows
from repro.polynomial.ordering import (
    count_monomials_up_to_degree,
    grlex_ranks,
    grlex_unrank,
    monomials_up_to_degree,
)

widths = st.integers(min_value=1, max_value=6)
degrees = st.integers(min_value=0, max_value=5)


@lru_cache(maxsize=None)
def symbolic_rows(width: int, degree: int) -> np.ndarray:
    names = [f"v{i}" for i in range(width)]
    basis = monomials_up_to_degree(names, degree)
    return exponent_rows(basis, {name: i for i, name in enumerate(names)}, width)


@st.composite
def exponent_matrices(draw):
    width = draw(widths)
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=width, max_size=width).filter(
                lambda row: sum(row) <= 5
            ),
            min_size=1,
            max_size=12,
        )
    )
    return np.asarray(rows, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(exponent_matrices())
def test_unrank_inverts_rank(exponents):
    width = exponents.shape[1]
    assert np.array_equal(grlex_unrank(grlex_ranks(exponents), width), exponents)


@settings(max_examples=60, deadline=None)
@given(widths, degrees)
def test_unranked_rows_follow_the_symbolic_enumeration(width, degree):
    expected = symbolic_rows(width, degree)
    ranks = np.arange(count_monomials_up_to_degree(width, degree), dtype=np.int64)
    assert np.array_equal(grlex_unrank(ranks, width), expected)
    assert np.array_equal(_basis_exponents(width, degree), expected)


@settings(max_examples=60, deadline=None)
@given(widths, degrees, st.randoms(use_true_random=False))
def test_rank_strings_match_monomial_text(width, degree, rng):
    # Variable order is not name order: origin strings must still print the
    # variables sorted by name, exactly like ``str(Monomial)``.
    names = [f"x{i}" for i in range(width)]
    rng.shuffle(names)
    variables = tuple(names)
    basis = monomials_up_to_degree(variables, degree)
    ranks = sorted(rng.sample(range(len(basis)), min(len(basis), 8)))
    strings = _rank_strings(variables, ranks)
    assert [strings[rank] for rank in ranks] == [str(basis[rank]) for rank in ranks]


def test_unrank_edge_cases():
    assert grlex_unrank(np.zeros(0, dtype=np.int64), 3).shape == (0, 3)
    assert grlex_unrank(np.zeros(2, dtype=np.int64), 0).shape == (2, 0)
    assert _basis_exponents(0, 4).shape == (1, 0)
    assert _basis_exponents(3, -1).shape == (0, 3)
    with pytest.raises(ValueError):
        grlex_unrank(np.asarray([1]), 0)
    with pytest.raises(ValueError):
        grlex_unrank(np.asarray([-1]), 2)

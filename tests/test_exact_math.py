"""Rational helpers and the integer elimination kernel."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powerpoly.exact_math import bareiss, decimal_str, parse_rational
from expected_values import ACCEPTED_LITERALS, REJECTED_LITERALS
from integration_oracle import _eliminate

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
integers = st.integers(min_value=-100, max_value=100)


class TestParseRational:
    def test_plain_integer(self):
        assert parse_rational("4") == Fraction(4)

    def test_fraction_form(self):
        assert parse_rational("97/150") == Fraction(97, 150)

    def test_negative_reduces(self):
        assert parse_rational("-3/6") == Fraction(-1, 2)

    @pytest.mark.parametrize("text", ACCEPTED_LITERALS)
    def test_accepts_rational_literals(self, text):
        assert parse_rational(text) == ACCEPTED_LITERALS[text]

    @pytest.mark.parametrize("bad", REJECTED_LITERALS)
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", ["1/0", " -0/000 ", "+12/00"])
    def test_zero_denominator_names_the_text(self, text):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == f"zero denominator in {text!r}"

    @given(
        st.sampled_from(["", "+", "-"]),
        st.from_regex(r"\A[0-9]{1,25}\Z"),
        st.none() | st.from_regex(r"\A0*[1-9][0-9]{0,24}\Z"),
    )
    def test_matches_fraction_on_signed_tokens(self, sign, num, den):
        # leading zeros in either part, large parts, and every sign
        token = sign + num + ("" if den is None else "/" + den)
        value = parse_rational(token)
        assert value == Fraction(token)
        assert type(value.numerator) is int and type(value.denominator) is int


class TestDecimalStr:
    def test_six_places_default(self):
        assert decimal_str(Fraction(7, 36)) == "0.194444"

    def test_rounds_half_to_even(self):
        assert decimal_str(Fraction(5, 1000), 2) == "0.00"
        assert decimal_str(Fraction(15, 1000), 2) == "0.02"

    def test_negative_value(self):
        assert decimal_str(Fraction(-7, 36), 3) == "-0.194"

    def test_integer_value(self):
        assert decimal_str(Fraction(3), 2) == "3.00"

    def test_exact_terminating_decimal(self):
        assert decimal_str(Fraction(1, 8), 6) == "0.125000"

    def test_zero_places_round_half_to_even(self):
        assert decimal_str(Fraction(1, 2), 0) == "0"
        assert decimal_str(Fraction(3, 2), 0) == "2"

    def test_thousand_places(self):
        out = decimal_str(Fraction(1, 3), 1000)
        assert out == "0." + "3" * 1000

    def test_refuses_past_thousand_places(self):
        with pytest.raises(ValueError, match="at most 1000"):
            decimal_str(Fraction(1, 3), 1001)

    def test_refuses_negative_places(self):
        with pytest.raises(ValueError, match="places must be nonnegative"):
            decimal_str(1, -1)

    @given(st.data())
    def test_matches_rounding_the_scaled_fraction(self, data):
        places = data.draw(st.integers(0, 50))
        if data.draw(st.booleans()):
            # an exact tie halfway between two roundings, of either sign
            k = data.draw(st.integers(-(10**6), 10**6))
            value = Fraction(2 * k + 1, 2 * 10**places)
        else:
            value = data.draw(
                st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)
            )
        scaled = round(Fraction(value) * 10**places)
        sign = "-" if scaled < 0 else ""
        whole, frac = divmod(abs(scaled), 10**places)
        want = f"{sign}{whole}" + (f".{frac:0{places}d}" if places else "")
        assert decimal_str(value, places) == want


def det(rows):
    """Determinant through bareiss: its last pivot, or 0 below full rank."""
    rnk, last = bareiss([list(row) for row in rows])
    return last if rnk == len(rows) else 0


def rank(rows):
    return bareiss([list(row) for row in rows])[0]


class TestDeterminant:
    def test_identity_3x3(self):
        assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_diagonal(self):
        assert det([[1, 0], [0, 2]]) == 2

    def test_simplex_edge_matrix_against_shoelace(self):
        # triangle (1/3,1/3), (1/2,1/2), (1/2,0) times 6: (2,2), (3,3),
        # (3,0); edge vectors as columns
        p, q, r = (2, 2), (3, 3), (3, 0)
        d = det([[q[0] - p[0], r[0] - p[0]], [q[1] - p[1], r[1] - p[1]]])
        assert d == -3
        shoelace = (
            p[0] * (q[1] - r[1]) + q[0] * (r[1] - p[1]) + r[0] * (p[1] - q[1])
        )
        assert abs(d) == abs(shoelace) == 3
        # area 3/2 at scale 6 is 1/24 for the rational triangle
        assert Fraction(abs(d), 2 * 6**2) == Fraction(1, 24)

    def test_row_swap_flips_sign(self):
        assert det([[2, 3], [5, 7]]) == -det([[5, 7], [2, 3]]) == -1
        assert det([[0, 1], [1, 0]]) == -1  # the kernel swaps these itself

    def test_singular_is_exactly_zero(self):
        assert bareiss([[1, 2], [2, 4]])[0] == 1
        assert det([[1, 2], [2, 4]]) == 0

    @given(
        st.lists(
            st.lists(integers, min_size=2, max_size=2),
            min_size=2,
            max_size=2,
        )
    )
    def test_transpose_invariance(self, rows):
        t = [[rows[0][0], rows[1][0]], [rows[0][1], rows[1][1]]]
        assert det(rows) == det(t)


# few distinct entries, many zeros: rank deficiency and pivot-free columns,
# rows whose multiplier is 0, and successive pivots that are equal
sparse_entries = st.sampled_from([0] * 4 + [1, -2, 3, -5, 12])


def fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def matrices(rows, cols):
    """rows x cols matrices of sparse entries, some columns all zero."""
    return st.tuples(
        st.lists(
            st.lists(sparse_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ),
        st.sets(st.integers(0, max(cols - 1, 0))),
    ).map(
        lambda mz: [
            [0 if j in mz[1] else x for j, x in enumerate(row)] for row in mz[0]
        ]
    )


# Rows below the first pivot with a 0 in its column: left as they are
# under equal pivots (1 after the start value 1), scaled by 2 otherwise.
EQUAL_PIVOTS = [[1, 2, 0], [0, 1, 3], [0, 4, 1]]
UNEQUAL_PIVOTS = [[2, 1, 0], [0, 3, 1], [1, 0, 5]]
# Scaling such a row by pivot // previous pivot, and not entry by entry,
# gets this determinant wrong.
ROUNDED_SCALE = [
    [12, 0, -2, 0, 0, -5, 1, 0],
    [3, 12, 0, 0, 1, 0, -2, 12],
    [3, 12, 0, 1, 1, -5, 12, 3],
    [0, -5, 0, 3, 3, 0, -2, 12],
    [-2, 0, -5, 12, 0, 0, 12, 3],
    [-2, -5, 0, -5, 0, 1, 3, 0],
    [0, 12, 0, 0, 0, 12, 12, 0],
    [3, 12, -2, -2, -5, 1, 12, 0],
]


@given(
    st.tuples(st.integers(0, 10), st.integers(0, 10)).flatmap(
        lambda shape: matrices(*shape)
    )
)
@example(EQUAL_PIVOTS)
@example(UNEQUAL_PIVOTS)
@example(ROUNDED_SCALE)
def test_rank_matches_fraction_elimination(rows):
    assert rank(rows) == _eliminate(fractions(rows))[0]


@given(st.integers(0, 10).flatmap(lambda n: matrices(n, n)))
@example(EQUAL_PIVOTS)
@example(UNEQUAL_PIVOTS)
@example(ROUNDED_SCALE)
def test_determinant_matches_fraction_elimination(rows):
    rnk, ref = _eliminate(fractions(rows))
    assert det(rows) == (ref if rnk == len(rows) else 0)


class TestRank:
    def test_rank(self):
        assert rank([[1, 1], [2, 2]]) == 1
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[0, 1, 0], [0, 0, 1]]) == 2  # past a pivot-free column


@given(rationals, rationals)
def test_addition_round_trips(a, b):
    assert (a + b) - b == a

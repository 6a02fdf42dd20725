"""Ring arithmetic: reduction, axioms, and the numeric lift."""

import cmath

import pytest
from hypothesis import given, strategies as st

from ringref import (
    IMAG_UNIT, INV_SQRT2, MINUS_ONE, OMEGA, ONE, SQRT2, ZERO, CycloNum, conj, pack, parse, power,
)

coeff = st.integers(min_value=-50, max_value=50)
exponent = st.integers(min_value=0, max_value=6)


@st.composite
def ring_values(draw):
    return CycloNum(draw(coeff), draw(coeff), draw(coeff), draw(coeff), draw(exponent))


# For the exact-vs-numeric agreement test the coefficients must stay small:
# the field norm then bounds any nonzero value away from zero by ~6e-8, so
# the 1e-9 window can never produce a false numeric equality.
small_coeff = st.integers(min_value=-8, max_value=8)
small_exponent = st.integers(min_value=0, max_value=4)


@st.composite
def small_values(draw):
    return CycloNum(
        draw(small_coeff),
        draw(small_coeff),
        draw(small_coeff),
        draw(small_coeff),
        draw(small_exponent),
    )


class TestReduction:
    def test_zero_normalizes_exponent(self):
        assert CycloNum(0, 0, 0, 0, 5) == ZERO
        assert ZERO.coeffs() == (0, 0, 0, 0, 0)

    def test_even_numerator_reduces(self):
        # (2 + 2i)/2 = 1 + i
        assert CycloNum(2, 0, 2, 0, 2) == CycloNum(1, 0, 1, 0)

    def test_reduced_form_is_fixed_point(self):
        v = CycloNum(1, 0, 0, 0, 1)
        assert v.coeffs() == (1, 0, 0, 0, 1)

    @given(ring_values())
    def test_reduction_idempotent(self, v):
        assert CycloNum(*v.coeffs()) == v

    @given(ring_values())
    def test_reduced_numerator_not_divisible(self, v):
        a, b, c, d, k = v.coeffs()
        if k > 0:
            assert (a - c) % 2 != 0 or (b - d) % 2 != 0

    def test_inv_sqrt2_sum_is_sqrt2(self):
        total = INV_SQRT2 + INV_SQRT2
        assert total == SQRT2
        assert abs(total.to_complex() - 2**0.5) < 1e-12


class TestConstants:
    def test_omega_is_eighth_root(self):
        assert power(OMEGA, 8) == ONE
        assert power(OMEGA, 4) == MINUS_ONE
        assert abs(OMEGA.to_complex() - cmath.exp(1j * cmath.pi / 4)) < 1e-15

    def test_imag_unit(self):
        assert IMAG_UNIT == OMEGA * OMEGA
        assert power(IMAG_UNIT, 2) == MINUS_ONE

    def test_sqrt2(self):
        assert SQRT2 * SQRT2 == ONE + ONE
        assert SQRT2 * INV_SQRT2 == ONE
        assert OMEGA + -power(OMEGA, 3) == SQRT2


class TestAxioms:
    @given(ring_values(), ring_values())
    def test_add_commutes(self, x, y):
        assert x + y == y + x

    @given(ring_values(), ring_values(), ring_values())
    def test_add_associates(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(ring_values(), ring_values())
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(ring_values(), ring_values(), ring_values())
    def test_mul_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(ring_values(), ring_values(), ring_values())
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(ring_values())
    def test_mul_identity(self, x):
        assert x * ONE == x
        assert x + ZERO == x

    @given(ring_values())
    def test_additive_inverse(self, x):
        assert x + (-x) == ZERO
        assert (-x) + x == ZERO

    @given(ring_values())
    def test_conjugation_involution(self, x):
        assert conj(conj(x)) == x

    @given(ring_values(), ring_values())
    def test_conjugation_multiplicative(self, x, y):
        assert conj(x * y) == conj(x) * conj(y)

    @given(ring_values())
    def test_pow_matches_repeated_mul(self, x):
        assert power(x, 0) == ONE
        assert power(x, 1) == x
        assert power(x, 3) == x * x * x


class TestNumericLift:
    @given(ring_values(), ring_values())
    def test_product_lift_agrees(self, x, y):
        exact = (x * y).to_complex()
        approx = x.to_complex() * y.to_complex()
        assert abs(exact - approx) < 1e-9

    @given(ring_values(), ring_values())
    def test_sum_lift_agrees(self, x, y):
        assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-9

    @given(small_values(), small_values())
    def test_exact_equality_matches_numeric(self, x, y):
        numeric_equal = abs(x.to_complex() - y.to_complex()) < 1e-9
        assert (x == y) == numeric_equal

    @given(ring_values())
    def test_conjugate_lift(self, x):
        assert abs(conj(x).to_complex() - x.to_complex().conjugate()) < 1e-9


class TestParsing:
    def test_str_parse_round_trip(self):
        for v in (ZERO, ONE, OMEGA, SQRT2, INV_SQRT2, CycloNum(3, -2, 1, 0, 4)):
            assert parse(str(v)) == v

    @given(ring_values())
    def test_round_trip_random(self, v):
        assert parse(str(v)) == v

    @pytest.mark.parametrize(
        "text",
        [
            "", "1,2,3/0", "1,2,3,4", "1,2,3,4/", "a,0,0,0/0", "1,2,3,4,5/0", "1,0,0,0/-1",
            "1_0,0,0,0/0", "\u0661,0,0,0/0", "1,0,0,0/1_6", "1,0,0,0/\u0661", "+-1,0,0,0/0",
            "1,0,0,0/1/2", " 1,0,0,0/0",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse(text)

    def test_signed_ascii_integers_accepted(self):
        assert parse("+1,-0,0,-1/+0") == CycloNum(1, 0, 0, -1, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse("2000000,0,0,0/0")
        with pytest.raises(ValueError):
            parse("1,0,0,0/99")


class TestEncoding:
    @given(ring_values())
    def test_pack_unpack_round_trip(self, v):
        assert CycloNum.unpack(pack(v)) == v

    def test_pack_orders_like_tuples(self):
        # byte order of the packed form must equal tuple order
        vals = [CycloNum(a, b, 0, 0) for a in (-2, 0, 3) for b in (-1, 2)]
        by_bytes = sorted(vals, key=pack)
        by_tuple = sorted(vals, key=lambda v: v.coeffs())
        assert by_bytes == by_tuple

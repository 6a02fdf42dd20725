"""Kernels: scalar products against ring arithmetic, batched against scalar."""

import random

import pytest

from czorbits import kernels
from czorbits.encoding import BIAS, COEF_LIMIT, ENTRY_BYTES, K_LIMIT, pack_values
from czorbits.matrices import C1_GENERATORS, C2_GENERATORS, CZ, GateMatrix, H, I2, I4, P
from ringref import CycloNum, conj, entry


def random_matrix(rng, dim, kmax=3, cmax=9):
    rows = [
        [
            CycloNum(
                rng.randint(-cmax, cmax),
                rng.randint(-cmax, cmax),
                rng.randint(-cmax, cmax),
                rng.randint(-cmax, cmax),
                rng.randint(0, kmax),
            )
            for _ in range(dim)
        ]
        for _ in range(dim)
    ]
    return GateMatrix.from_entries(rows)


def sparse_matrix(rng, dim, cmax=9):
    """One row and one column all zero, a quarter of the other entries zero
    (about half of all entries for dim 4), and exponents from 0 to K_LIMIT
    within one matrix: the zero-skipping and lifting paths of the kernels."""
    zero_row, zero_col = rng.randrange(dim), rng.randrange(dim)
    rows = [
        [
            CycloNum(
                *(rng.randint(-cmax, cmax) for _ in range(4)), rng.randint(0, K_LIMIT)
            )
            if i != zero_row and j != zero_col and rng.random() >= 0.25
            else CycloNum(0)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return GateMatrix.from_entries(rows)


def scalar_mat_mul(x: GateMatrix, y: GateMatrix) -> GateMatrix:
    """Reference product computed entry by entry in ring arithmetic."""
    dim = x.dim
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = CycloNum(0)
            for t in range(dim):
                acc = acc + entry(x, i, t) * entry(y, t, j)
            row.append(acc)
        rows.append(row)
    return GateMatrix.from_entries(rows)


def raw_matrix(dim, entry):
    """An encoding with `entry` on the diagonal and zeros elsewhere, unchecked."""
    zero = pack_values((0, 0, 0, 0, 0))
    return b"".join(
        pack_values(entry) if i == j else zero for i in range(dim) for j in range(dim)
    )


def scalar_products(xs, ys, dim):
    return b"".join(kernels.mat_mul(x, y, dim) for x in xs for y in ys)


# 15 pairs of dense operands, then 15 of each mix with sparse ones
DRAWS = [(random_matrix, random_matrix)] * 15 + [
    (random_matrix, sparse_matrix),
    (sparse_matrix, random_matrix),
    (sparse_matrix, sparse_matrix),
] * 15


class TestScalarOracle:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_mat_mul_matches_ring_arithmetic(self, dim):
        rng = random.Random(17 * dim)
        for draw_x, draw_y in DRAWS:
            x = draw_x(rng, dim)
            y = draw_y(rng, dim)
            expect = scalar_mat_mul(x, y)
            assert kernels.mat_mul(x.data, y.data, dim) == expect.data

    def test_mat_tensor_matches_ring_arithmetic(self):
        rng = random.Random(23)
        for draw_x, draw_y in DRAWS:
            x = draw_x(rng, 2)
            y = draw_y(rng, 2)
            rows = [
                [
                    entry(x, i1, j1) * entry(y, i2, j2)
                    for j1 in range(2)
                    for j2 in range(2)
                ]
                for i1 in range(2)
                for i2 in range(2)
            ]
            expect = GateMatrix.from_entries(rows)
            assert kernels.mat_tensor(x.data, y.data) == expect.data

    def test_mat_dagger_matches_ring_arithmetic(self):
        rng = random.Random(29)
        for _ in range(15):
            x = random_matrix(rng, 4)
            rows = [
                [conj(entry(x, j, i)) for j in range(4)] for i in range(4)
            ]
            expect = GateMatrix.from_entries(rows)
            assert kernels.mat_dagger(x.data, 4) == expect.data

    def test_mat_tensor_outside_32_bits_raises(self):
        x = raw_matrix(2, (1 << 20, 0, 0, 0, 0))
        result = None
        with pytest.raises(AssertionError):
            result = kernels.mat_tensor(x, x)
        assert result is None


class TestBatchedProduct:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_ring_matrices_match_scalar(self, dim):
        rng = random.Random(300 + dim)
        for _ in range(30):
            xs = [random_matrix(rng, dim).data for _ in range(rng.randint(1, 4))]
            ys = [random_matrix(rng, dim).data for _ in range(rng.randint(1, 3))]
            got = kernels.mat_mul_batch(b"".join(xs), b"".join(ys), dim)
            assert got == scalar_products(xs, ys, dim)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_exponents_up_to_the_limit_match_scalar(self, dim):
        # exponents far apart within one matrix stretch the lift the most
        rng = random.Random(400 + dim)
        for _ in range(30):
            xs = [random_matrix(rng, dim, kmax=K_LIMIT, cmax=3).data for _ in range(3)]
            ys = [random_matrix(rng, dim, kmax=K_LIMIT, cmax=3).data for _ in range(2)]
            got = kernels.mat_mul_batch(b"".join(xs), b"".join(ys), dim)
            assert got == scalar_products(xs, ys, dim)

    @pytest.mark.parametrize(
        "gens, table", [(C1_GENERATORS, "c1"), (C2_GENERATORS, "c2")]
    )
    def test_every_generator_on_a_sample_matches_scalar(self, ws, gens, table):
        group = ws.table(table)
        rng = random.Random(500)
        ids = rng.sample(range(len(group)), min(len(group), 300))
        xs = [group.element(e).data for e in ids]
        ys = [g.data for g in gens.values()]
        got = kernels.mat_mul_batch(b"".join(xs), b"".join(ys), group.dim)
        assert got == scalar_products(xs, ys, group.dim)
        size = len(ys[0])
        for row, e in enumerate(ids):
            for col in range(len(ys)):
                at = (row * len(ys) + col) * size
                assert group.contains(GateMatrix(group.dim, got[at : at + size])) == group.right[e, col]

    def test_empty_batch(self):
        assert kernels.mat_mul_batch(b"", CZ.data, 4) == b""
        assert kernels.mat_mul_batch(CZ.data, b"", 4) == b""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_inputs_at_the_parser_limits_are_accepted(self, dim):
        x = raw_matrix(dim, (COEF_LIMIT - 1, 0, 0, 0, K_LIMIT))
        y = raw_matrix(dim, (1, 0, 0, 0, 0))
        assert kernels.mat_mul_batch(x, y, dim) == kernels.mat_mul(x, y, dim)

    @pytest.mark.parametrize(
        "entry",
        [
            (BIAS - 1, 0, 0, 0, 0),
            (0, 0, 0, -BIAS, 0),
            (COEF_LIMIT, 0, 0, 0, 0),
            (1, 0, 0, 0, K_LIMIT + 1),
        ],
        ids=["2^31-1", "-2^31", "coef-limit", "k-limit"],
    )
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_input_outside_the_limits_raises(self, entry, side):
        big = raw_matrix(4, entry)
        x, y = (big, I4.data) if side == "x" else (I4.data, big)
        result = None
        with pytest.raises(AssertionError):
            result = kernels.mat_mul_batch(x, y, 4)
        assert result is None

    def test_result_outside_32_bits_raises_like_scalar(self):
        x = raw_matrix(4, (COEF_LIMIT - 1, COEF_LIMIT - 1, 0, 0, 0))
        with pytest.raises(AssertionError):
            kernels.mat_mul(x, x, 4)
        with pytest.raises(AssertionError):
            kernels.mat_mul_batch(x, x, 4)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            kernels.mat_mul_batch(I2.data, I2.data, 3)
        with pytest.raises(ValueError):
            kernels.mat_mul_batch(I4.data[:-ENTRY_BYTES], I4.data, 4)
        with pytest.raises(ValueError):
            kernels.mat_mul_batch(I2.data, I4.data, 4)


class TestKernelErrors:
    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            kernels.mat_mul(I2.data, I2.data, 3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kernels.mat_mul(I2.data, I4.data, 2)
        with pytest.raises(ValueError):
            kernels.mat_dagger(I2.data[: 3 * ENTRY_BYTES], 2)
        with pytest.raises(ValueError):
            kernels.mat_tensor(I2.data, I4.data)


class TestLandmarks:
    def test_known_products(self):
        assert kernels.mat_mul(H.data, H.data, 2) == I2.data
        assert kernels.mat_mul(CZ.data, CZ.data, 4) == I4.data
        p2 = kernels.mat_mul(P.data, P.data, 2)
        assert kernels.mat_mul(p2, p2, 2) == I2.data
        assert kernels.mat_tensor(I2.data, I2.data) == I4.data
        assert kernels.mat_dagger(CZ.data, 4) == CZ.data

"""Gate matrices: constants, identities, encodings, numeric agreement."""

import cmath
import pickle
import random

import numpy as np
import pytest

from czorbits.groups import left_action
from czorbits.matrices import (
    CNOT_T1,
    CNOT_T2,
    CZ,
    H,
    I2,
    I4,
    P,
    SWAP,
    C1_GENERATORS,
    C2_GENERATORS,
    GateMatrix,
)
from ringref import OMEGA, ONE, ZERO, CycloNum, entry, to_numpy


def random_word_matrix(rng, gens, length):
    m = GateMatrix.identity(next(iter(gens.values())).dim)
    for _ in range(length):
        m = m * rng.choice(list(gens.values()))
    return m


class TestGateIdentities:
    def test_hadamard_involution(self):
        assert H * H == I2

    def test_phase_order_four(self):
        assert P * P * P * P == I2
        assert P * P.dagger() == I2

    def test_cz_involution(self):
        assert CZ * CZ == I4
        assert CZ.dagger() == CZ

    def test_hp_cubed_is_omega(self):
        # the global-phase subgroup shows up here: (HP)^3 is a scalar
        hp = H * P
        cube = hp * hp * hp
        assert cube == GateMatrix.from_entries([[OMEGA, ZERO], [ZERO, OMEGA]])
        # numeric cross-check that the scalar really is exp(i*pi/4)
        phase = to_numpy(cube)[0, 0]
        assert abs(phase - cmath.exp(1j * cmath.pi / 4)) < 1e-12

    def test_cnot_t2_is_hadamard_conjugated_cz(self):
        h2 = I2.tensor(H)
        assert h2 * CZ * h2 == CNOT_T2

    def test_cnot_t1_is_hadamard_conjugated_cz(self):
        h1 = H.tensor(I2)
        assert h1 * CZ * h1 == CNOT_T1

    def test_cnot_basis_action(self):
        # control on qubit 1: |10> <-> |11>; control on qubit 2: |01> <-> |11>
        m2 = to_numpy(CNOT_T2).real.astype(int)
        perm2 = [int(np.argmax(m2[:, j])) for j in range(4)]
        assert perm2 == [0, 1, 3, 2]
        m1 = to_numpy(CNOT_T1).real.astype(int)
        perm1 = [int(np.argmax(m1[:, j])) for j in range(4)]
        assert perm1 == [0, 3, 2, 1]

    def test_swap_from_three_cnots(self):
        assert CNOT_T2 * CNOT_T1 * CNOT_T2 == SWAP
        m = to_numpy(SWAP).real.astype(int)
        perm = [int(np.argmax(m[:, j])) for j in range(4)]
        assert perm == [0, 2, 1, 3]

    def test_generator_unitarity(self):
        for g in {**C1_GENERATORS, **C2_GENERATORS}.values():
            assert g.is_unitary()


class TestTensor:
    def test_identity_tensor(self):
        assert I2.tensor(I2) == I4

    def test_block_layout(self):
        t = P.tensor(H)
        # top-left block is 1*H, bottom-right block is i*H
        for i in range(2):
            for j in range(2):
                assert entry(t, i, j) == entry(H, i, j)
                assert entry(t, 2 + i, 2 + j) == entry(H, i, j) * entry(P, 1, 1)

    def test_tensor_bilinear(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_word_matrix(rng, C1_GENERATORS, 4)
            b = random_word_matrix(rng, C1_GENERATORS, 4)
            c = random_word_matrix(rng, C1_GENERATORS, 4)
            d = random_word_matrix(rng, C1_GENERATORS, 4)
            assert a.tensor(b) * c.tensor(d) == (a * c).tensor(b * d)

    def test_tensor_requires_2x2(self):
        with pytest.raises(ValueError):
            I4.tensor(I2)


class TestNumericAgreement:
    def test_matmul_matches_numpy(self):
        rng = random.Random(9)
        for _ in range(25):
            x = random_word_matrix(rng, C2_GENERATORS, 6)
            y = random_word_matrix(rng, C2_GENERATORS, 6)
            exact = to_numpy(x * y)
            approx = to_numpy(x) @ to_numpy(y)
            assert np.abs(exact - approx).max() < 1e-12

    def test_dagger_matches_numpy(self):
        rng = random.Random(10)
        for _ in range(10):
            x = random_word_matrix(rng, C2_GENERATORS, 5)
            assert np.abs(to_numpy(x.dagger()) - to_numpy(x).conj().T).max() < 1e-14

    def test_unitarity_numeric(self):
        rng = random.Random(11)
        for _ in range(10):
            x = random_word_matrix(rng, C2_GENERATORS, 8)
            u = to_numpy(x)
            assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-12


class TestEncoding:
    def test_equality_is_byte_equality(self):
        assert H == H
        assert H != P
        assert hash(H) == hash(GateMatrix(2, H.data))

    def test_total_order_deterministic(self):
        assert sorted([I4, CZ]) == [CZ, I4]
        assert sorted([H, P]) == sorted([P, H])

    def test_dimension_in_order_key(self):
        assert I2 < I4 or I4 < I2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            H.dim = 4

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, ws, protocol):
        m = pickle.loads(pickle.dumps(CZ, protocol=protocol))
        assert m == CZ and m.dim == 4 and hash(m) == hash(CZ)
        with pytest.raises(AttributeError):
            m.dim = 2
        c1 = pickle.loads(pickle.dumps(ws.c1, protocol=protocol))
        assert [c1.element(e) for e in range(len(c1))] == [
            ws.c1.element(e) for e in range(len(ws.c1))
        ]
        assert [c1.word_of(e) for e in range(len(c1))] == [
            ws.c1.word_of(e) for e in range(len(ws.c1))
        ]
        assert (c1.right == ws.c1.right).all()
        assert c1.contains(H) == ws.c1.contains(H)
        assert [c1.contains(c1.element(e)) for e in range(len(c1))] == list(range(len(c1)))
        assert (left_action(c1, P) == left_action(ws.c1, P)).all()

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            GateMatrix(3, b"\x00" * 180)
        with pytest.raises(ValueError):
            GateMatrix(2, b"\x00" * 10)

    def test_from_entries_requires_square(self):
        with pytest.raises(ValueError):
            GateMatrix.from_entries([[ONE, ZERO]])

    def test_from_entries_reduces_each_entry(self):
        # (2 + 2ω²)/√2² is 1 + ω², so both spellings give one encoding
        unreduced = GateMatrix.from_entries([[(2, 0, 2, 0, 2), ZERO], [ZERO, ONE]])
        reduced = GateMatrix.from_entries([[(1, 0, 1, 0, 0), ZERO], [ZERO, ONE]])
        assert unreduced.data == reduced.data
        assert unreduced.entries()[0][0] == (1, 0, 1, 0, 0)


class TestPredicates:
    def test_is_unitary_negative(self):
        shear = GateMatrix.from_entries([[ONE, ONE], [ZERO, ONE]])
        assert not shear.is_unitary()

    @pytest.mark.parametrize("dim,bits", [(2, 19), (4, 19), (4, 31)])
    def test_is_unitary_large_coefficients(self, dim, bits):
        big = CycloNum((1 << bits) - 1)
        assert not GateMatrix.from_entries([[big] * dim] * dim).is_unitary()

    def test_entries_round_trip(self):
        again = GateMatrix.from_entries(CZ.entries())
        assert again == CZ

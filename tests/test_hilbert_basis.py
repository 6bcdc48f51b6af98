"""The Hilbert-basis oracle of criterion 07 against closed forms: a
basis of known degree, the X family's coarse dimensions and the Y
family's isolated points."""

import random
from itertools import product

import pytest
from hilbert_basis import hilbert_basis, lattice_rank
from weight_systems import qdef_weight_system

from kmoduli.moduli import local_model
from kmoduli.quotsurf import CyclicAction, assemble_qdef, build_surface


def preset_columns(action):
    return qdef_weight_system(assemble_qdef(build_surface(action))).columns


def test_a_generator_of_degree_40():
    assert hilbert_basis([(4, -3), (-1, 4), (-1, -4)]) == [(8, 19, 13)]


@pytest.mark.parametrize("l", [5, 8])
def test_the_primitive_x_input_pairs_each_coordinate_with_each_opposite(l):
    n = l - 1
    basis = hilbert_basis([(1, 1)] * n + [(-1, -1)] * n)
    pairs = {tuple(int(t in (i, n + j)) for t in range(2 * n)) for i in range(n) for j in range(n)}
    assert len(basis) == n * n and set(basis) == pairs


@pytest.mark.parametrize("l", [5, 6, 7])
def test_the_x_basis_spans_the_coarse_dimension(l):
    # X_8 has 651 basis elements and X_10 2,927: the basis grows fast
    basis = hilbert_basis(preset_columns(CyclicAction.x_family(l)))
    assert lattice_rank(basis) == 2 * l - 3 == local_model("X", l).coarse_dim


@pytest.mark.parametrize("l", [5, 7, 11, 13, 15])
def test_a_y_surface_has_no_invariant(l):
    assert hilbert_basis(preset_columns(CyclicAction.y_family(l))) == []


def test_a_zero_column_is_its_own_invariant():
    assert hilbert_basis([(0, 0)]) == [(1,)]
    assert hilbert_basis([(1, -2), (0, 0), (-1, 2)]) == [(0, 1, 0), (1, 0, 1)]


def at_least(a, b):
    return all(x >= y for x, y in zip(a, b))


def solves(columns, m):
    """Whether sum_j m_j w_j = 0."""
    return not any(sum(e * w[i] for e, w in zip(m, columns)) for i in range(len(columns[0])))


def test_the_basis_solves_the_system_and_is_an_antichain():
    rng = random.Random(29)
    for _ in range(200):
        k, n = rng.randint(1, 3), rng.randint(1, 4)
        columns = [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(n)]
        basis = hilbert_basis(columns)
        for a in basis:
            assert any(a) and min(a) >= 0 and solves(columns, a), (columns, a)
            assert not any(a != b and at_least(a, b) for b in basis), (columns, a)
        # and every nonzero solution with exponents up to 3 lies above one
        for m in product(range(4), repeat=n):
            if any(m) and solves(columns, m):
                assert any(at_least(m, b) for b in basis), (columns, m)

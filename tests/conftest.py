import numpy as np
import pytest
from hypothesis import settings

from nogo_lab import opcore
from nogo_lab.nogo import random_commuting_pair, random_noncommuting_pair
from nogo_lab.quantum import Projector
from nogo_lab.rng import make_generator

settings.register_profile("lab", deadline=None, max_examples=30)
settings.load_profile("lab")


@pytest.fixture
def gen():
    return make_generator(0xFEED)


# The pair samplers the test modules import from here are the library's own,
# with their matrices judged as projectors at BUILT_TOL.
def commuting_projector_pair(gen, dim):
    return tuple(Projector.from_matrix(m, opcore.BUILT_TOL) for m in random_commuting_pair(gen, dim))


def noncommuting_projector_pair(gen, dim, min_comm=0.05):
    pair = random_noncommuting_pair(gen, dim, min_comm)
    return tuple(Projector.from_matrix(m, opcore.BUILT_TOL) for m in pair)


# Test-only builders: no command writes a matrix or draws a plain Hermitian.
def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in map(complex, row)] for row in np.asarray(m)]


def random_hermitian(gen, dim: int) -> np.ndarray:
    g = opcore.complex_gaussian(gen, dim, dim)
    return (g + opcore.dag(g)) / 2


def qr_projector(basis: np.ndarray, g: np.ndarray) -> np.ndarray:
    """QQ† with Q the QR factor of basis @ G: the conditioning batch's C <= B,
    for one basis of range(B) and one Gaussian G."""
    q = np.linalg.qr(basis @ g)[0]
    return q @ opcore.dag(q)


def projector_below(b: Projector, gen) -> Projector:
    """Random projector C <= B of uniform rank r in [1, rank(B)], drawn and
    built as the conditioning batch does: r, a rank(B) x r Gaussian, QR."""
    vals, vecs = np.linalg.eigh(b.mat)
    g = opcore.complex_gaussian(gen, b.rank, int(gen.integers(1, b.rank + 1)))
    return Projector.from_matrix(qr_projector(vecs[:, vals > 0.5], g), tol=opcore.BASIS_TOL)


def basis_projector(dim: int, index: int) -> Projector:
    v = np.zeros(dim)
    v[index] = 1.0
    return Projector.from_ray(v)


def plus_projector(dim: int, i: int, j: int) -> Projector:
    """Projector onto (e_i + e_j)/sqrt(2)."""
    v = np.zeros(dim)
    v[i] = v[j] = 1.0
    return Projector.from_ray(v)

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


def basis_projector(dim: int, index: int) -> Projector:
    v = np.zeros(dim)
    v[index] = 1.0
    return Projector.from_ray(v)


def plus_projector(dim: int, i: int, j: int) -> Projector:
    """Projector onto (e_i + e_j)/sqrt(2)."""
    v = np.zeros(dim)
    v[i] = v[j] = 1.0
    return Projector.from_ray(v)

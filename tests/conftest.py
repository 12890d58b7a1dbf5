import numpy as np
import pytest
from hypothesis import settings

# The pair samplers the test modules import from here are the library's own.
from nogo_lab.nogo import random_commuting_pair as commuting_projector_pair
from nogo_lab.nogo import random_noncommuting_pair as noncommuting_projector_pair
from nogo_lab.quantum import Projector
from nogo_lab.rng import make_generator

settings.register_profile("lab", deadline=None, max_examples=30)
settings.load_profile("lab")


@pytest.fixture
def gen():
    return make_generator(0xFEED)


def basis_projector(dim: int, index: int) -> Projector:
    v = np.zeros(dim)
    v[index] = 1.0
    return Projector.from_ray(v)


def plus_projector(dim: int, i: int, j: int) -> Projector:
    """Projector onto (e_i + e_j)/sqrt(2)."""
    v = np.zeros(dim)
    v[i] = v[j] = 1.0
    return Projector.from_ray(v)

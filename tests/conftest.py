import math

import numpy as np
import pytest

from sirmc import cauchy_generator, generic, gmc_generator, hoc, hog, how, welsch_generator
from sirmc.selftest import default_penalties

LAM = 1.0

# Each closed form's generated twin, by method: the family lam -> the
# framework's generic penalty from the generator the closed form splices, at
# the same shape / lam.
GENERATOR_TWINS = {
    "how": lambda lam: generic(lam, welsch_generator(math.sqrt(2.0) * lam)),
    "hoc": lambda lam: generic(lam, cauchy_generator(lam)),
    "hog": lambda lam: generic(lam, gmc_generator(math.sqrt(3.0) / 2.0 * lam)),
}


def boundary_penalties():
    """The four named kinds at threshold 1 with strict boundary shapes."""
    return default_penalties()


def nonconvex_penalties():
    return [how(LAM), hoc(LAM), hog(LAM)]


@pytest.fixture(params=["soft", "how", "hoc", "hog"])
def penalty(request):
    return {p.kind: p for p in boundary_penalties()}[request.param]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(12345)))

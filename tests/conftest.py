import numpy as np
import pytest

from sirmc import hoc, hog, how, soft_threshold

LAM = 1.0


def boundary_penalties():
    """The four named kinds at threshold 1 with strict boundary shapes."""
    return [soft_threshold(LAM), how(LAM), hoc(LAM), hog(LAM)]


def nonconvex_penalties():
    return [how(LAM), hoc(LAM), hog(LAM)]


@pytest.fixture(params=["soft", "how", "hoc", "hog"])
def penalty(request):
    return {p.kind: p for p in boundary_penalties()}[request.param]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(12345)))

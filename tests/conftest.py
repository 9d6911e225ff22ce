import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

from sirmc import cauchy_generator, generic, gmc_generator, hoc, hog, how, welsch_generator
from sirmc.selftest import default_penalties

LAM = 1.0

# Each hybrid kind's generated twin, by method: the family lam -> the
# framework's generic penalty from the generator the kind splices, at the
# kind's default shape / lam.
GENERATOR_TWINS = {
    "how": lambda lam: generic(lam, welsch_generator(math.sqrt(2.0) * lam)),
    "hoc": lambda lam: generic(lam, cauchy_generator(lam)),
    "hog": lambda lam: generic(lam, gmc_generator(math.sqrt(3.0) / 2.0 * lam)),
}


# The paper's closed forms of the hybrid kinds, kept here as the referee of the
# generator splice that defines them in the package: by method, the shrinkage
# amount s(|x|) that the prox subtracts from |x| beyond lam, and the loss tail
# beyond lam, each at threshold lam and shape c.
def _how_shrink(lam, c, ax):
    return ax * np.exp((lam * lam - np.square(ax)) / (c * c))


def _hoc_shrink(lam, c, ax):
    return (c * c + lam * lam) * ax / (c * c + np.square(ax))


def _hog_shrink(lam, c, ax):
    return ax * np.square((lam * lam + 4.0 * c * c) / (np.square(ax) + 4.0 * c * c))


def _how_tail(lam, c, ax):
    return 0.5 * c * c * (1.0 - np.exp((lam * lam - np.square(ax)) / (c * c))) + 0.5 * lam * lam


def _hoc_tail(lam, c, ax):
    half_sum = 0.5 * (c * c + lam * lam)
    return (half_sum * np.log1p(np.square(ax) / (c * c))
            + 0.5 * lam * lam - half_sum * math.log1p(lam * lam / (c * c)))


def _hog_tail(lam, c, ax):
    t2 = 4.0 * c * c
    x2 = np.square(ax)
    return (lam * lam + t2) ** 2 / (2.0 * t2) * (x2 / (x2 + t2)) - lam ** 4 / (2.0 * t2)


CLOSED_FORMS = {"how": (_how_shrink, _how_tail), "hoc": (_hoc_shrink, _hoc_tail),
                "hog": (_hog_shrink, _hog_tail)}


def closed_form_prox(method, lam, shape, x):
    """The paper's prox max{0, |x| - s(|x|)} * sign(x), zero on [-lam, lam]."""
    ax = np.abs(x)
    shrink = CLOSED_FORMS[method][0](lam, shape, np.maximum(ax, lam))
    return np.where(ax <= lam, 0.0, np.maximum(0.0, ax - shrink) * np.sign(x))


def closed_form_loss(method, lam, shape, x):
    """The paper's loss: x^2/2 on [-lam, lam], the spliced tail outside."""
    ax = np.abs(x)
    return np.where(ax <= lam, 0.5 * np.square(x),
                    CLOSED_FORMS[method][1](lam, shape, np.maximum(ax, lam)))


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


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's perfbench/tracing.py as a fresh module, loaded read-only:
    no bytecode is written beside it and nothing is added to sys.path."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

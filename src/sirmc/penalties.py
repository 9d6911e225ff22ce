"""Sparsity-inducing penalties with closed-form proximity operators.

A penalty here is described through its loss: a function that is x^2/2 on
[-lam, lam] and a rescaled robust tail a*h(|x|)+b outside, spliced so the
result is C1. Each such loss is the Moreau envelope (with weight lam) of an
implicit regularizer whose proximity operator has the closed form

    P(x) = max{0, |x| - s(|x|)} * sign(x),

where s is the loss tail's derivative. The regularizer itself usually has
no closed form; ``implicit_regularizer`` reconstructs it on a grid and
``moreau_argmin_oracle`` brute-forces the envelope, which lets the closed
forms above be certified numerically.

Built-in kinds: plain soft thresholding plus the hybrid quadratic/Welsch
("how"), quadratic/Cauchy ("hoc") and quadratic/GMC ("hog") losses, which
``METHODS`` alone lists by method name ("nnm" is soft thresholding). Each
hybrid kind is the splice of its generator (``GENERATORS``) at its shape, so
it shares one prox, one loss and one certificate with ``generic``, which
splices any smooth generator h. The solver takes one penalty at lam = 1.
With the shape, or the generator's argument, proportional to lam,
prox_lam(x) = lam * prox_1(x / lam), so it shrinks at threshold lam_k with
lam_k * prox_1(sigma / lam_k), and the unit penalty certifies every one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BiasConstraintViolated,
    DomainError,
    GeneratorNotConvex,
    GridTooCoarse,
    NonPositiveParameter,
    ZeroDerivativeAtThreshold,
)

SOFT = "soft"
HOW = "how"
HOC = "hoc"
HOG = "hog"
GENERIC = "generic"

KINDS = (SOFT, HOW, HOC, HOG, GENERIC)

METHODS = {"nnm": SOFT, "how": HOW, "hoc": HOC, "hog": HOG}  # in table and CLI order

# Default shape/lam ratio: the largest whose shrinkage amount decays beyond the
# threshold, biasing large values less than soft thresholding (validate's bound).
STRICT_SHAPE_RATIO = {
    HOW: math.sqrt(2.0),
    HOC: 1.0,
    HOG: math.sqrt(3.0) / 2.0,
}

# Default oracle grid: step = lam / ORACLE_STEP_DIV, range +-(|input| + 10*lam).
ORACLE_STEP_DIV = 200
MAX_ORACLE_STEP_DIV = 100  # contract: step must not exceed lam / 100
ORACLE_RANGE_MARGIN = 10.0


@dataclass(frozen=True)
class GeneratorFunction:
    """Scalar generator h used to synthesize a penalty.

    h and h_prime must accept ndarray input and be continuously
    differentiable beyond the threshold. h_second is optional; when absent,
    concavity certification falls back to divided differences of h_prime.
    """

    h: Callable[[np.ndarray], np.ndarray]
    h_prime: Callable[[np.ndarray], np.ndarray]
    h_second: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""


@dataclass(frozen=True)
class ContinuityConstants:
    """Splice constants: a*h'(lam) = lam and a*h(lam) + b = lam^2/2."""

    a: float
    b: float


@dataclass(frozen=True)
class Penalty:
    """A penalty at threshold lam.

    shape is the tail parameter (sigma for "how", gamma for "hoc", tau for
    "hog"); it is None for "soft". A hybrid kind's generator is built from
    its shape; a generic penalty is given one, and no other kind takes one.
    """

    kind: str
    lam: float
    shape: Optional[float] = None
    generator: Optional[GeneratorFunction] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown penalty kind {self.kind!r}, expected one of {KINDS}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise NonPositiveParameter(f"lam must be finite and positive, got {self.lam}")
        if self.kind in GENERATORS and not 0.0 < (self.shape or 0.0) < math.inf:
            raise NonPositiveParameter(
                f"{self.kind} needs a finite and positive shape parameter, got {self.shape}")
        if (self.kind == GENERIC) != (self.generator is not None):
            raise DomainError(f"{self.kind} penalty: only generic takes a generator, and needs one")
        q = self.lam * self.lam + 4.0 * (self.shape or 0.0) * (self.shape or 0.0)
        if not math.isfinite(q * q):  # gmc's h'(lam) forms (lam^2 + 4 shape^2)^2
            raise DomainError(f"lam {self.lam} and shape {self.shape} overflow the loss")
        if self.kind in GENERATORS:
            object.__setattr__(self, "generator", GENERATORS[self.kind](self.shape))


def soft_threshold(lam: float) -> Penalty:
    return Penalty(SOFT, lam)


def how(lam: float, sigma: float | None = None) -> Penalty:
    """Hybrid quadratic/Welsch penalty; sigma defaults to sqrt(2)*lam."""
    return make_penalty(HOW, lam, shape=sigma)


def hoc(lam: float, gamma: float | None = None) -> Penalty:
    """Hybrid quadratic/Cauchy penalty; gamma defaults to lam."""
    return make_penalty(HOC, lam, shape=gamma)


def hog(lam: float, tau: float | None = None) -> Penalty:
    """Hybrid quadratic/GMC penalty; tau defaults to sqrt(3)/2*lam."""
    return make_penalty(HOG, lam, shape=tau)


def generic(lam: float, generator: GeneratorFunction) -> Penalty:
    return Penalty(GENERIC, lam, generator=generator)


def make_penalty(kind: str, lam: float, shape: float | None = None,
                 generator: GeneratorFunction | None = None) -> Penalty:
    """Factory keyed on kind name. Only the hybrid kinds take a shape, by default their
    strict bound times lam; Penalty rejects unknown kinds and a generator not for generic."""
    if kind in STRICT_SHAPE_RATIO and shape is None:
        shape = STRICT_SHAPE_RATIO[kind] * lam
    return Penalty(kind, lam, shape if kind in STRICT_SHAPE_RATIO else None, generator)


def _far_out(f):
    """f, with x^2 free to overflow to inf: the generators send that inf only
    into a denominator, a clamp or a far-out form, so f returns its limit."""
    return np.errstate(over="ignore")(f)


def welsch_generator(sigma: float) -> GeneratorFunction:
    """h(x) = -sigma^2/2 * exp(-x^2/sigma^2), the Welsch loss less its constant
    sigma^2/2; generates the "how" kind. With the constant, a*h + b would cancel
    to nothing at a small sigma, where a = exp(lam^2/sigma^2) is huge."""
    s2 = float(sigma) * float(sigma)
    # Clamped where exp(-q) is already 0, so that (1 - 2q) * exp(-q) is not inf * 0.
    q = _far_out(lambda x: np.minimum(np.square(x) / s2, 1e3))
    return GeneratorFunction(
        h=lambda x: -0.5 * s2 * np.exp(-q(x)),
        h_prime=lambda x: x * np.exp(-q(x)),
        h_second=lambda x: (1.0 - 2.0 * q(x)) * np.exp(-q(x)),
        name="welsch",
    )


def cauchy_generator(gamma: float) -> GeneratorFunction:
    """h(x) = log(1 + x^2/gamma^2), log(x^2) - log(gamma^2) far out; generates the "hoc" kind."""
    g2 = float(gamma) * float(gamma)
    d = _far_out(lambda x: g2 + np.square(x))
    return GeneratorFunction(
        h=_far_out(lambda x: np.where(np.square(x) / g2 < np.inf, np.log1p(np.square(x) / g2),
                                      2.0 * np.log(np.abs(x) + math.sqrt(g2)) - math.log(g2))),
        h_prime=lambda x: 2.0 * (x / d(x)),
        h_second=lambda x: 2.0 * (2.0 * g2 / d(x) - 1.0) / d(x),
        name="cauchy",
    )


def gmc_generator(tau: float) -> GeneratorFunction:
    """h(x) = -4*tau^2 / (x^2 + 4*tau^2), the GMC loss x^2 / (x^2 + 4*tau^2) less
    its constant 1; generates the "hog" kind. With the constant, a*h + b would
    cancel at a small tau, where a = (lam^2 + 4*tau^2)^2 / (8*tau^2) is huge."""
    t2 = 4.0 * float(tau) * float(tau)
    d = _far_out(lambda x: np.square(x) + t2)
    return GeneratorFunction(
        h=lambda x: -t2 / d(x),
        # Where d is inf, 2 t2 x may be too, and inf / inf is nan; x = 0 there gives 0.
        h_prime=_far_out(lambda x: 2.0 * t2 * np.where(d(x) < np.inf, x, 0.0) / np.square(d(x))),
        h_second=_far_out(lambda x: 2.0 * t2 / np.square(d(x)) * (4.0 * t2 / d(x) - 3.0)),
        name="gmc",
    )


# Each hybrid kind's generator, as a function of its shape.
GENERATORS = {HOW: welsch_generator, HOC: cauchy_generator, HOG: gmc_generator}


def _slope_at(generator: GeneratorFunction, lam: float) -> float:
    """h'(lam); ZeroDerivativeAtThreshold if it is 0, not finite or lam / h'(lam) overflows."""
    hp = float(generator.h_prime(np.float64(lam)))
    if hp == 0.0 or not (math.isfinite(hp) and math.isfinite(lam / hp)):
        raise ZeroDerivativeAtThreshold(f"h'({lam}) = {hp} for generator {generator.name!r}")
    return hp


def continuity_constants(generator: GeneratorFunction, lam: float) -> ContinuityConstants:
    """Solve the two C1 matching conditions at |x| = lam.

    Slope match a*h'(lam) = lam gives a; value match a*h(lam) + b = lam^2/2
    gives b. Raises ZeroDerivativeAtThreshold when h'(lam) = 0 (a undefined).
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise NonPositiveParameter(f"lam must be finite and positive, got {lam}")
    a = lam / _slope_at(generator, lam)
    b = 0.5 * lam * lam - a * float(generator.h(np.float64(lam)))
    return ContinuityConstants(a, b)


def validate(penalty: Penalty) -> None:
    """Certify bias dominance of every penalty with a generator: g(x) =
    x^2/2 - loss(x) is convex, and h'' < 0 beyond the threshold, so the
    shrinkage amount decays there. For the hybrid kinds the second test is
    the shape bound sigma <= sqrt(2)*lam, gamma <= lam, tau <= sqrt(3)/2*lam.
    """
    if penalty.generator is None:
        return
    lam, gen = penalty.lam, penalty.generator
    cc = continuity_constants(gen, lam)
    # Convexity of g(x) = x^2/2 - loss(x): g' vanishes on [0, lam] by the C1
    # splice, so g is convex iff the tail derivative x - a*h'(x) stays
    # nonnegative and nondecreasing. Sample it unclipped: clipping at zero
    # would mask a tail where the derivative goes negative outright.
    x = np.linspace(lam, 20.0 * lam, 4001)
    gp = x - cc.a * np.asarray(gen.h_prime(x), dtype=float)
    tol = 1e-9 * max(1.0, lam)
    if not np.isfinite(gp).all():
        raise GeneratorNotConvex("g' not finite on the sampled grid")
    if np.any(gp < -tol) or np.any(np.diff(gp) < -tol):
        raise GeneratorNotConvex("sampled g' negative or decreasing; g is not convex")
    xs = np.linspace(lam * (1 + 1e-6), 20.0 * lam, 4001)
    if gen.h_second is not None:
        h2 = np.asarray(gen.h_second(xs), dtype=float)
    else:
        dh = lam * 1e-5
        h2 = (np.asarray(gen.h_prime(xs + dh), dtype=float)
              - np.asarray(gen.h_prime(xs - dh), dtype=float)) / (2 * dh)
    # Sign bit, not h2 < 0: a negative h'' that underflows (Welsch far out at a
    # small sigma) keeps its sign as -0.0; +0.0, a positive value and nan fail.
    if not np.all(np.signbit(h2)):
        ratio = STRICT_SHAPE_RATIO.get(penalty.kind)
        got = "" if ratio is None else f" at shape {penalty.shape}, over {ratio:.6f} * lam"
        raise BiasConstraintViolated(f"{penalty.kind}: h'' >= 0 beyond the threshold{got}; "
                                     "bias does not decay")


def _shrink_amount(penalty: Penalty, ax: np.ndarray) -> np.ndarray:
    """Shrinkage s(|x|) subtracted from |x| by the prox: lam, or a*h'(|x|) in
    ratio form |x| * (h'(t)/t) / (h'(lam)/lam) with t = max(|x|, lam). The
    ratio is exactly 1 for |x| <= lam, which makes prox(x) = 0 <=> |x| <= lam
    exact; the clamp also keeps h' away from a possibly awkward origin.
    """
    lam = penalty.lam
    if penalty.kind == SOFT:
        return np.full_like(ax, lam)
    t = np.maximum(ax, lam)
    ratio_at_lam = _slope_at(penalty.generator, lam) / lam
    return ax * (np.asarray(penalty.generator.h_prime(t), dtype=float) / t / ratio_at_lam)


def prox_eval(penalty: Penalty, x):
    """Closed-form proximity operator, elementwise.

    Odd, exactly zero on [-lam, lam], and nondecreasing for valid penalties.
    """
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    out = np.maximum(0.0, ax - _shrink_amount(penalty, ax)) * np.sign(xa)
    return float(out) if np.ndim(x) == 0 else out


def loss_eval(penalty: Penalty, x):
    """Loss value, elementwise: x^2/2 inside [-lam, lam], spliced tail outside.

    The boundary |x| = lam is evaluated on the quadratic branch (both
    branches agree there by construction).
    """
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    lam = penalty.lam
    if penalty.kind == SOFT:
        tail = lam * ax - 0.5 * lam * lam
    else:
        cc = continuity_constants(penalty.generator, lam)
        tail = cc.a * np.asarray(penalty.generator.h(np.maximum(ax, lam)), dtype=float) + cc.b
    out = np.where(ax <= lam, 0.5 * np.square(np.minimum(ax, lam)), tail)
    return float(out) if np.ndim(x) == 0 else out


def bias(penalty: Penalty, x):
    """Shrinkage gap x - P(x) for x >= lam.

    Equals lam at x = lam for every kind; constant for soft thresholding and
    decaying beyond the threshold for the others under strict shapes.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < penalty.lam):
        raise DomainError(f"bias defined for x >= lam = {penalty.lam}")
    out = xa - np.asarray(prox_eval(penalty, xa))
    return float(out) if np.ndim(x) == 0 else out


def _resolve_step(penalty: Penalty, grid_step: float | None) -> float:
    step = penalty.lam / ORACLE_STEP_DIV if grid_step is None else float(grid_step)
    if step <= 0.0 or step > penalty.lam / MAX_ORACLE_STEP_DIV * (1 + 1e-12):
        raise GridTooCoarse(
            f"grid step {step} exceeds lam/{MAX_ORACLE_STEP_DIV} = "
            f"{penalty.lam / MAX_ORACLE_STEP_DIV:.6g}"
        )
    return step


def _symmetric_grid(half_range: float, step: float) -> np.ndarray:
    n = int(math.ceil(half_range / step))
    return np.arange(-n, n + 1, dtype=float) * step


def implicit_regularizer(penalty: Penalty, y, grid_step: float | None = None):
    """Numerically reconstruct the regularizer value at y.

    The regularizer generally has no closed-form expression; its value is
    the conjugate-style maximum of loss(x)/lam - (x-y)^2/(2*lam), taken here
    over a symmetric grid with the requested step (default lam/200, at most
    lam/100) covering +-(max|y| + 10*lam). Nonnegative, zero at the origin,
    nondecreasing in |y|.
    """
    step = _resolve_step(penalty, grid_step)
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    lam = penalty.lam
    xg = _symmetric_grid(np.max(np.abs(ya), initial=0.0) + ORACLE_RANGE_MARGIN * lam, step)
    scaled_loss = np.asarray(loss_eval(penalty, xg)) / lam
    out = np.empty(ya.shape, dtype=float)
    flat_y = ya.reshape(-1)
    flat_out = out.reshape(-1)
    chunk = max(1, (1 << 22) // xg.size)
    for start in range(0, flat_y.size, chunk):
        block = flat_y[start:start + chunk, None]
        vals = scaled_loss[None, :] - np.square(xg[None, :] - block) / (2.0 * lam)
        flat_out[start:start + chunk] = vals.max(axis=1)
    return float(out[0]) if np.ndim(y) == 0 else out


def moreau_argmin_oracle(penalty: Penalty, x, grid_step: float | None = None):
    """Brute-force the proximal problem min_y (x-y)^2/2 + lam*reg(y) on a grid.

    Returns (argmin, minval). The argmin certifies prox_eval to within one
    grid step and the minimum certifies loss_eval, without touching either
    closed form on the search path: the regularizer values come from
    ``implicit_regularizer`` and the minimization is plain enumeration.
    """
    step = _resolve_step(penalty, grid_step)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    lam = penalty.lam
    yg = _symmetric_grid(np.max(np.abs(xa), initial=0.0) + ORACLE_RANGE_MARGIN * lam, step)
    reg = implicit_regularizer(penalty, yg, grid_step=step)
    argmin = np.empty(xa.shape, dtype=float)
    minval = np.empty(xa.shape, dtype=float)
    flat_x = xa.reshape(-1)
    chunk = max(1, (1 << 22) // yg.size)
    for start in range(0, flat_x.size, chunk):
        block = flat_x[start:start + chunk, None]
        obj = 0.5 * np.square(block - yg[None, :]) + lam * reg[None, :]
        idx = obj.argmin(axis=1)
        argmin.reshape(-1)[start:start + chunk] = yg[idx]
        minval.reshape(-1)[start:start + chunk] = obj[np.arange(idx.size), idx]
    if np.ndim(x) == 0:
        return float(argmin[0]), float(minval[0])
    return argmin, minval

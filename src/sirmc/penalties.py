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
``METHODS`` alone lists by method name ("nnm" is soft thresholding). New
penalties are synthesized from any smooth generator h via ``generic``. The
solver takes a family lam -> Penalty. With the shape, or the generator's
argument, proportional to lam, prox_lam(x) = lam * prox_1(x / lam), so the
member at lam = 1 certifies every threshold.
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

# Largest shape/lam ratio for which the shrinkage amount decays beyond the
# threshold, i.e. the penalty biases large values less than soft thresholding.
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
    """One member of the penalty family.

    lam is the shrinkage threshold. shape is the tail parameter (sigma for
    "how", gamma for "hoc", tau for "hog"); it is None for "soft". Generic
    penalties carry their generator instead.
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
        if self.kind in STRICT_SHAPE_RATIO:
            if self.shape is None or not (self.shape > 0.0 and math.isfinite(self.shape)):
                raise NonPositiveParameter(
                    f"{self.kind} needs a finite and positive shape parameter, got {self.shape}"
                )
        if self.kind == GENERIC and self.generator is None:
            raise DomainError("generic penalty needs a generator")
        q = self.lam * self.lam + 4.0 * (self.shape or 0.0) * (self.shape or 0.0)
        if not math.isfinite(q * q):  # hog's loss forms (lam^2 + 4 shape^2)^2
            raise DomainError(f"lam {self.lam} and shape {self.shape} overflow the loss")


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
    """Factory keyed on kind name; shape falls back to the kind's default, its
    strict bound times lam. Soft ignores shape; Penalty rejects unknown kinds."""
    if kind == SOFT:
        return soft_threshold(lam)
    if kind == GENERIC:
        return generic(lam, generator)
    if kind in STRICT_SHAPE_RATIO and shape is None:
        shape = STRICT_SHAPE_RATIO[kind] * lam
    return Penalty(kind, lam, shape)


def welsch_generator(sigma: float) -> GeneratorFunction:
    """h(x) = sigma^2/2 * (1 - exp(-x^2/sigma^2)); reproduces the "how" kind."""
    s2 = float(sigma) ** 2
    return GeneratorFunction(
        h=lambda x: 0.5 * s2 * (1.0 - np.exp(-np.square(x) / s2)),
        h_prime=lambda x: x * np.exp(-np.square(x) / s2),
        h_second=lambda x: (1.0 - 2.0 * np.square(x) / s2) * np.exp(-np.square(x) / s2),
        name="welsch",
    )


def cauchy_generator(gamma: float) -> GeneratorFunction:
    """h(x) = log(1 + x^2/gamma^2); reproduces the "hoc" kind."""
    g2 = float(gamma) ** 2
    return GeneratorFunction(
        h=lambda x: np.log1p(np.square(x) / g2),
        h_prime=lambda x: 2.0 * x / (g2 + np.square(x)),
        h_second=lambda x: 2.0 * (g2 - np.square(x)) / np.square(g2 + np.square(x)),
        name="cauchy",
    )


def gmc_generator(tau: float) -> GeneratorFunction:
    """h(x) = x^2 / (x^2 + 4*tau^2); reproduces the "hog" kind."""
    t2 = 4.0 * float(tau) ** 2
    return GeneratorFunction(
        h=lambda x: np.square(x) / (np.square(x) + t2),
        h_prime=lambda x: 2.0 * t2 * x / np.square(np.square(x) + t2),
        h_second=lambda x: 2.0 * t2 * (t2 - 3.0 * np.square(x)) / (np.square(x) + t2) ** 3,
        name="gmc",
    )


def _slope_at(generator: GeneratorFunction, lam: float) -> float:
    """h'(lam); raises ZeroDerivativeAtThreshold when it is 0 or not finite."""
    hp = float(generator.h_prime(np.float64(lam)))
    if hp == 0.0 or not math.isfinite(hp):
        raise ZeroDerivativeAtThreshold(f"h'({lam}) = {hp}")
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
    """Check bias dominance; certify generic penalties.

    A named kind must keep the shape bound under which the shrinkage amount
    decays beyond the threshold (sigma <= sqrt(2)*lam, gamma <= lam,
    tau <= sqrt(3)/2*lam). Generic penalties are certified numerically:
    first that the quadratic complement g(x) = x^2/2 - loss(x) is convex
    (sampled tail derivative nonnegative and nondecreasing), then that h is
    concave beyond the threshold.
    """
    # Positivity is checked by Penalty.__post_init__, which every instance
    # (frozen, so never mutated afterwards) has passed.
    if penalty.kind in STRICT_SHAPE_RATIO:
        if penalty.shape > STRICT_SHAPE_RATIO[penalty.kind] * penalty.lam * (1 + 1e-12):
            raise BiasConstraintViolated(
                f"{penalty.kind}: shape {penalty.shape} exceeds "
                f"{STRICT_SHAPE_RATIO[penalty.kind]:.6f} * lam = "
                f"{STRICT_SHAPE_RATIO[penalty.kind] * penalty.lam:.6g}"
            )
    elif penalty.kind == GENERIC:
        _certify_generator(penalty)


def _certify_generator(penalty: Penalty) -> None:
    """Numerical certificates for a user-supplied generator."""
    lam = penalty.lam
    gen = penalty.generator
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
    if np.any(h2 >= 0.0):
        raise BiasConstraintViolated("h'' >= 0 beyond the threshold; bias does not decay")


def _shrink_ratio(penalty: Penalty, ax: np.ndarray) -> np.ndarray:
    """Shrinkage amount divided by |x|, for |x| = ax >= 0.

    Written as a ratio so that s(lam) = lam holds exactly in floating point
    (the ratio is a/a = 1 at the threshold), which makes the thresholding
    property prox(x) = 0 <=> |x| <= lam exact. lam is squared by plain
    multiplication for the same reason: pow() can land one ulp away from
    x*x, which would shift the boundary off |x| = lam.
    """
    lam2 = penalty.lam * penalty.lam
    if penalty.kind == HOW:
        s2 = penalty.shape * penalty.shape
        return np.exp((lam2 - np.square(ax)) / s2)
    if penalty.kind == HOC:
        g2 = penalty.shape * penalty.shape
        return (g2 + lam2) / (g2 + np.square(ax))
    if penalty.kind == HOG:
        t2 = 4.0 * penalty.shape * penalty.shape
        return np.square((lam2 + t2) / (np.square(ax) + t2))
    raise ValueError(f"no ratio form for kind {penalty.kind!r}")


def _shrink_amount(penalty: Penalty, ax: np.ndarray) -> np.ndarray:
    """Kind-specific shrinkage s(|x|) subtracted from |x| by the prox."""
    if penalty.kind == SOFT:
        return np.full_like(ax, penalty.lam)
    if penalty.kind == GENERIC:
        # a*h'(t) in ratio form, |x| * (h'(t)/t) / (h'(lam)/lam) with
        # t = max(|x|, lam): the ratio is exactly 1 for |x| <= lam, so the
        # prox is exactly 0 there, as for the closed forms. The clamp also
        # keeps h' away from a possibly awkward origin.
        lam = penalty.lam
        t = np.maximum(ax, lam)
        ratio_at_lam = _slope_at(penalty.generator, lam) / lam
        return ax * (np.asarray(penalty.generator.h_prime(t), dtype=float) / t / ratio_at_lam)
    return ax * _shrink_ratio(penalty, ax)


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
    elif penalty.kind == HOW:
        s2 = penalty.shape ** 2
        tail = 0.5 * s2 * (1.0 - np.exp((lam * lam - np.square(ax)) / s2)) + 0.5 * lam * lam
    elif penalty.kind == HOC:
        g2 = penalty.shape ** 2
        half_sum = 0.5 * (g2 + lam * lam)
        delta = 0.5 * lam * lam - half_sum * math.log1p(lam * lam / g2)
        tail = half_sum * np.log1p(np.square(ax) / g2) + delta
    elif penalty.kind == HOG:
        t2 = 4.0 * penalty.shape ** 2
        c = (lam * lam + t2) ** 2
        x2 = np.square(ax)
        tail = c / (2.0 * t2) * (x2 / (x2 + t2)) - lam ** 4 / (2.0 * t2)  # no c * x^2 overflow
    else:
        cc = continuity_constants(penalty.generator, penalty.lam)
        tail = cc.a * np.asarray(penalty.generator.h(np.maximum(ax, lam)), dtype=float) + cc.b
    out = np.where(ax <= lam, 0.5 * np.square(xa), tail)
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

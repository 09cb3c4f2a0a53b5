"""Seeded generators for randomized identity instances.

Numerators and denominators stay small (|num| <= 9, den <= 9) so that
intermediate exact rationals remain cheap at verification scale.  Seeding by
``(seed, tag)`` string keeps every registry entry reproducible on its own.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .polyring import MultiPoly
from .series import TruncatedSeries
from .univar import UnivarPoly


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def random_series(rng: random.Random, order: int) -> TruncatedSeries:
    return TruncatedSeries([random_rational(rng) for _ in range(order + 1)])


def random_delta(rng: random.Random, order: int) -> TruncatedSeries:
    coeffs = [Fraction(0), random_rational(rng, nonzero=True)]
    coeffs += [random_rational(rng) for _ in range(order - 1)]
    return TruncatedSeries(coeffs, order=order)


def random_poly(rng: random.Random, degree: int) -> UnivarPoly:
    coeffs = [random_rational(rng) for _ in range(degree)]
    coeffs.append(random_rational(rng, nonzero=True))
    return UnivarPoly(coeffs)


def random_multipoly(rng: random.Random) -> MultiPoly:
    """A small sparse element of the derivation ring (no plain variables): up
    to three terms, each with up to two ``y_i`` (-1 <= i <= 2) and up to two
    ``x_j`` (1 <= j <= 3)."""
    out = MultiPoly.zero()
    for _ in range(rng.randint(1, 3)):
        term = MultiPoly.const(random_rational(rng, nonzero=True))
        for _ in range(rng.randint(0, 2)):
            term = term * MultiPoly.y(rng.randint(-1, 2))
        for _ in range(rng.randint(0, 2)):
            term = term * MultiPoly.x(rng.randint(1, 3))
        out = out + term
    return out

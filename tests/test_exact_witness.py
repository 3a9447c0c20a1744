"""The no-signalling identity in exact rational arithmetic, with no rounding anywhere.

A Cayley transform ``V = (I - K)(I + K)^{-1}`` of a skew-Hermitian ``K``
is unitary, and its entries are Gaussian rationals when ``K``'s are, so
every product below is exact.  The global state is the density matrix of
``(|R> + z|s0>)/sqrt(2)`` over the receiver mode ``R`` and the sender
modes ``s0..s{n-1}``, with ``|z| = 1`` a rational phase: its entries are
Gaussian rationals although the amplitudes are not.  For seeded draws it
checks that a unitary on the sender modes alone leaves the receiver's
weight at exactly ``Fraction(1, 2)``, that one mixing the receiver mode in
moves it (but on three draws, where the small integers cancel exactly), that a projective instrument on the sender obeys the law of
total probability exactly, and that the library's float checks accept the
unitaries and call a row scaled by 9/10 a partial attenuation.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nosignal.optics import Circuit, custom_element, is_isometry, validate_circuit

HALF = Fraction(1, 2)
DRAWS = 100


@dataclass(frozen=True)
class Gaussian:
    """A Gaussian rational ``re + i im``."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other: Gaussian) -> Gaussian:
        return Gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Gaussian) -> Gaussian:
        return Gaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other: Gaussian) -> Gaussian:
        return Gaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def conj(self) -> Gaussian:
        return Gaussian(self.re, -self.im)

    def inverse(self) -> Gaussian:
        norm = self.re * self.re + self.im * self.im
        return Gaussian(self.re / norm, -self.im / norm)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


ZERO, ONE = Gaussian(Fraction(0)), Gaussian(Fraction(1))
Matrix = list[list[Gaussian]]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    columns = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in columns] for row in a]


def dagger(a: Matrix) -> Matrix:
    return [[x.conj() for x in col] for col in zip(*a)]


def combine(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """``a + b``, or ``a - b`` for a negative ``sign``."""
    op = Gaussian.__add__ if sign > 0 else Gaussian.__sub__
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan elimination, exact, on the augmented matrix ``[a | I]``."""
    n = len(a)
    rows = [list(row) + unit for row, unit in zip(a, identity(n))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != ZERO)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col].inverse()
        rows[col] = [x * scale for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != ZERO:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def cayley(rng: random.Random, n: int) -> Matrix:
    """``(I - K)(I + K)^{-1} = 2(I + K)^{-1} - I`` for a seeded skew-Hermitian ``K``: unitary.

    ``K = A - A^dag`` for an ``A`` of small Gaussian integers.
    """
    a = [[Gaussian(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(n)]
         for _ in range(n)]
    inv = inverse(combine(identity(n), combine(a, dagger(a), -1), +1))
    return combine([[x + x for x in row] for row in inv], identity(n), -1)


def direct_sum_one(v: Matrix) -> Matrix:
    """``1 (+) V``: the receiver mode untouched, ``V`` on the sender modes."""
    return [[ONE] + [ZERO] * len(v)] + [[ZERO] + row for row in v]


def initial_density(rng: random.Random, n: int) -> Matrix:
    """``|psi><psi|`` for ``psi = (|R> + z|s0>)/sqrt(2)`` with ``z = (p + iq)/(p - iq)``."""
    p, q = rng.randint(1, 5), rng.randint(-5, 5)
    z = Gaussian(Fraction(p), Fraction(q)) * Gaussian(Fraction(p), Fraction(-q)).inverse()
    psi = [ONE, z] + [ZERO] * (n - 1)  # times 1/sqrt(2), kept in the factor 1/2 below
    return [[Gaussian(HALF) * x * y.conj() for y in psi] for x in psi]


def evolve(u: Matrix, rho: Matrix) -> Matrix:
    return matmul(matmul(u, rho), dagger(u))


def to_array(a: Matrix) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in a])


def one_element_circuit(matrix: np.ndarray) -> Circuit:
    modes = tuple(f"m{i}" for i in range(len(matrix)))
    return Circuit((custom_element(matrix, modes, modes),), input_modes=modes)


@dataclass(frozen=True)
class Draw:
    """One seeded case: ``n <= 4`` sender modes, the state, a unitary ``v`` on
    the sender modes, one ``w`` on every mode, the state ``sigma`` after
    ``1 (+) v``, and a sender instrument's outcome of each mode."""

    seed: int
    n: int
    rho: Matrix
    v: Matrix
    w: Matrix
    sigma: Matrix
    owner: list[int]


@functools.cache
def draws() -> tuple[Draw, ...]:
    cases = []
    for seed in range(DRAWS):
        rng = random.Random(seed)
        n = 1 + seed % 4
        rho, v, w = initial_density(rng, n), cayley(rng, n), cayley(rng, n + 1)
        # each sender mode is in outcome 1..n, or in outcome 0 with the receiver
        # mode: the sender's "no click"
        owner = [0] + [rng.randint(0, n) for _ in range(n)]
        cases.append(Draw(seed, n, rho, v, w, evolve(direct_sum_one(v), rho), owner))
    return tuple(cases)


def test_a_cayley_transform_is_exactly_unitary():
    for d in draws():
        assert matmul(dagger(d.v), d.v) == identity(d.n), d.seed
        assert matmul(dagger(d.w), d.w) == identity(d.n + 1), d.seed


def test_a_sender_unitary_leaves_the_receiver_weight_at_exactly_one_half():
    for d in draws():
        assert d.rho[0][0] == Gaussian(HALF)
        assert d.sigma[0][0] == Gaussian(HALF), d.seed


def test_a_unitary_over_every_mode_moves_the_receiver_weight():
    # The weight after W is |W_RR + z W_Rs0|^2 / 2.  On three draws the small
    # integers make that modulus exactly 1, and the weight stays at 1/2.
    unmoved = []
    for d in draws():
        weight = evolve(d.w, d.rho)[0][0]
        if weight == Gaussian(HALF):
            z = d.rho[1][0] * Gaussian(Fraction(2))
            mixed = d.w[0][0] + d.w[0][1] * z
            assert mixed * mixed.conj() == ONE
            unmoved.append(d.seed)
    assert unmoved == [0, 25, 85]


def test_a_sender_instrument_obeys_the_law_of_total_probability():
    for d in draws():
        sigma = d.sigma
        total = receiver = Fraction(0)
        for outcome in set(d.owner):
            kept = [i for i in range(d.n + 1) if d.owner[i] == outcome]
            p = sum((sigma[i][i].re for i in kept), Fraction(0))
            if p == 0:  # cannot condition on it
                continue
            # the collapsed state's receiver weight: (P sigma P)_RR / p
            after = sigma[0][0].re / p if outcome == 0 else Fraction(0)
            total += p
            receiver += p * after
        assert (total, receiver) == (1, HALF), d.seed


def test_the_float_images_pass_the_library_checks():
    for d in draws():
        for matrix in (d.v, d.w, direct_sum_one(d.v)):
            image = to_array(matrix)
            assert is_isometry(image)[0], d.seed
            report = validate_circuit(one_element_circuit(image))
            assert report == {"physical": True, "failures": []}, d.seed


def test_a_row_scaled_by_nine_tenths_is_a_partial_attenuation():
    for d in draws():
        last = d.n - 1
        scaled = d.v[:last] + [[x * Gaussian(Fraction(9, 10)) for x in d.v[last]]]
        assert matmul(dagger(scaled), scaled) != identity(d.n)
        (failure,) = validate_circuit(one_element_circuit(to_array(scaled)))["failures"]
        assert failure["reason"] == "partial attenuation", d.seed

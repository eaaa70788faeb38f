"""Integer polynomials in t, Weierstrass family invariants, and template matching."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def _trimmed(coeffs) -> tuple[int, ...]:
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial in t with arbitrary-precision integer coefficients.

    coeffs[k] multiplies t^k; trailing zeros are stripped, so the zero
    polynomial has empty coeffs and degree -1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        other = poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-poly(other))

    def __rsub__(self, other):
        return poly(other) + (-self)

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        other = poly(other)
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = IntPolynomial((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_mod(self, t: int, p: int) -> int:
        """Horner evaluation with every step reduced into [0, p)."""
        acc = 0
        t %= p
        for c in reversed(self.coeffs):
            acc = (acc * t + c) % p
        return acc


def poly(spec) -> IntPolynomial:
    """Coerce an int or an ascending coefficient sequence into IntPolynomial."""
    if isinstance(spec, IntPolynomial):
        return spec
    if isinstance(spec, int):
        return IntPolynomial((spec,))
    return IntPolynomial(tuple(spec))


# the parameter t itself, convenient for building families
T = IntPolynomial((0, 1))


@dataclass(frozen=True)
class CurveFamily:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with each ai in Z[t]."""

    name: str
    a1: IntPolynomial
    a2: IntPolynomial
    a3: IntPolynomial
    a4: IntPolynomial
    a6: IntPolynomial
    expected_rank: int | None = None


def family(name, a1, a2, a3, a4, a6, expected_rank=None) -> CurveFamily:
    return CurveFamily(name, poly(a1), poly(a2), poly(a3), poly(a4), poly(a6), expected_rank)


@dataclass(frozen=True)
class Invariants:
    b2: IntPolynomial
    b4: IntPolynomial
    b6: IntPolynomial
    c4: IntPolynomial
    c6: IntPolynomial


@lru_cache(maxsize=None)
def compute_invariants(fam: CurveFamily) -> Invariants:
    """Standard b- and c-invariants of the family, as exact polynomials in t."""
    a1, a2, a3, a4, a6 = fam.a1, fam.a2, fam.a3, fam.a4, fam.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    return Invariants(b2, b4, b6, c4, c6)


@dataclass(frozen=True)
class Fiber:
    """Short Weierstrass fiber y^2 = x^3 + A x + B over F_p."""

    p: int
    A: int
    B: int


def fiber_at(fam: CurveFamily, t: int, p: int) -> Fiber:
    """Reduce the fiber at t to short form: A = -27 c4(t), B = -54 c6(t) mod p."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime, got %r" % (p,))
    inv = compute_invariants(fam)
    a = (-27 * inv.c4.eval_mod(t, p)) % p
    b = (-54 * inv.c6.eval_mod(t, p)) % p
    return Fiber(p, a, b)


def discriminant(fiber: Fiber) -> int:
    """(-16 (4 A^3 + 27 B^2)) mod p; zero exactly on singular fibers."""
    return (-16 * (4 * fiber.A ** 3 + 27 * fiber.B ** 2)) % fiber.p


@dataclass(frozen=True)
class Template1:
    """Medium form y^2 = 4x^3 + a x^2 + b x + c + d t with constant a, b and d != 0."""

    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class Template2:
    """Medium form y^2 = 4x^3 + (4m + 1) x^2 + n t x with n != 0."""

    m: int
    n: int


@dataclass(frozen=True)
class Template3:
    """The fixed family y^2 = x^3 - t^2 x + t^4."""


_T3_COEFFS = ((), (), (), (0, 0, -1), (0, 0, 0, 0, 1))


def match_template(fam: CurveFamily):
    """Classify the family against the shapes with known closed-form moments.

    Returns Template1/Template2/Template3 with extracted parameters, or None.
    """
    if (fam.a1.coeffs, fam.a2.coeffs, fam.a3.coeffs, fam.a4.coeffs, fam.a6.coeffs) == _T3_COEFFS:
        return Template3()
    inv = compute_invariants(fam)  # medium form y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, twob4, b6 = inv.b2, 2 * inv.b4, inv.b6
    if b2.is_constant() and twob4.is_constant() and b6.degree == 1:
        return Template1(b2.coeff(0), twob4.coeff(0), b6.coeff(0), b6.coeff(1))
    if (
        b2.is_constant()
        and b2.coeff(0) % 4 == 1
        and b6.is_zero()
        and twob4.degree == 1
        and twob4.coeff(0) == 0
    ):
        return Template2((b2.coeff(0) - 1) // 4, twob4.coeff(1))
    return None


def is_nondegenerate(fam: CurveFamily) -> bool:
    """True when the fiber discriminant is not identically zero.

    1728 Delta = c4^3 - c6^2, decided as an exact polynomial identity.
    """
    inv = compute_invariants(fam)
    return not (inv.c4 ** 3 - inv.c6 ** 2).is_zero()

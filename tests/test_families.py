"""Polynomial arithmetic, Weierstrass invariants, fibers, and template matching."""

import random

import pytest
import sympy

from ecmoments import (
    CurveFamily,
    Fiber,
    IntPolynomial,
    Template1,
    Template2,
    Template3,
    builtin_corpus,
    compute_invariants,
    corpus_family,
    discriminant,
    family,
    fiber_at,
    is_nondegenerate,
    match_template,
    poly,
    rank6_family,
)
from ecmoments.families import T


# ------------------------------------------------------------- IntPolynomial


def test_polynomial_normalization_and_degree():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((0,)).is_zero()
    assert poly(7).is_constant()
    assert T.degree == 1 and T.coeff(1) == 1 and T.coeff(5) == 0


def test_polynomial_algebra():
    one = poly(1)
    assert (one + T) * (one - T) == poly((1, 0, -1))
    assert (one + T) ** 3 == poly((1, 3, 3, 1))
    assert T - T == poly(0)
    assert 2 * T + T * 3 == poly((0, 5))
    assert (T**2 - 4) (3) == 5
    with pytest.raises(ValueError):
        T ** -1


def test_polynomial_operators_are_arithmetic_not_tuple_operations():
    # IntPolynomial is a tuple: its operators must never concatenate or repeat
    assert T + T == IntPolynomial((0, 2))
    assert T * 3 == 3 * T == IntPolynomial((0, 3))
    assert -T == IntPolynomial((0, -1))
    assert T ** 2 == IntPolynomial((0, 0, 1))
    assert sum([T, T], IntPolynomial(())) == IntPolynomial((0, 2))
    assert IntPolynomial((1, 0, 0)) == IntPolynomial((1,))
    assert hash(IntPolynomial((1, 0, 0))) == hash(IntPolynomial((1,)))
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)


def test_polynomial_eval_mod_matches_plain_eval():
    rng = random.Random(7)
    for _ in range(200):
        coeffs = tuple(rng.randrange(-(10**22), 10**22) for _ in range(rng.randrange(6)))
        q = IntPolynomial(coeffs)
        for t in (-3, 0, 1, 17, 10**6):
            for p in (3, 5, 97, 1009):
                assert q.eval_mod(t, p) == q(t) % p


# ------------------------------------------------------------------ invariants


def test_invariants_examples():
    inv = compute_invariants(corpus_family("1_0_0_-1_t"))
    assert (inv.b2, inv.b4, inv.b6) == (poly(1), poly(-2), poly((0, 4)))
    zero = family("zero", 0, 0, 0, 0, 0)
    invz = compute_invariants(zero)
    assert all(getattr(invz, k).is_zero() for k in ("b2", "b4", "b6", "c4", "c6"))
    inv8 = compute_invariants(corpus_family("0_1_1_1_t"))
    assert (inv8.b2, inv8.b4, inv8.b6) == (poly(4), poly(2), poly((1, 4)))


def _random_family(rng, name):
    def rand_poly():
        return poly(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))))

    return CurveFamily(name, rand_poly(), rand_poly(), rand_poly(), rand_poly(), rand_poly())


def test_invariant_identities_on_random_families():
    """c4/c6 reconstruction identities, plus numeric agreement at many t."""
    rng = random.Random(11)
    fams = [_random_family(rng, "rand%d" % i) for i in range(200)]
    fams += builtin_corpus() + [rank6_family()]
    for fam in fams:
        inv = compute_invariants(fam)
        assert inv.c4 == inv.b2 * inv.b2 - 24 * inv.b4
        assert inv.c6 == -(inv.b2**3) + 36 * inv.b2 * inv.b4 - 216 * inv.b6
        for t in range(-5, 15):
            a1, a2, a3 = fam.a1(t), fam.a2(t), fam.a3(t)
            a4, a6 = fam.a4(t), fam.a6(t)
            b2 = a1 * a1 + 4 * a2
            b4 = 2 * a4 + a1 * a3
            b6 = a3 * a3 + 4 * a6
            assert inv.b2(t) == b2 and inv.b4(t) == b4 and inv.b6(t) == b6
            assert inv.c4(t) == b2 * b2 - 24 * b4


def test_invariants_match_sympy_symbolically():
    t = sympy.symbols("t")
    for fam in builtin_corpus() + [rank6_family()]:
        a1, a2, a3, a4, a6 = (
            sympy.Poly(list(reversed(q.coeffs)) or [0], t)
            for q in (fam.a1, fam.a2, fam.a3, fam.a4, fam.a6)
        )
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        inv = compute_invariants(fam)
        for mine, ref in ((inv.b2, b2), (inv.b4, b4), (inv.b6, b6), (inv.c4, c4), (inv.c6, c6)):
            want = [int(v) for v in reversed(ref.all_coeffs())]
            while want and want[-1] == 0:
                want.pop()
            assert list(mine.coeffs) == want, fam.name


def test_medium_weierstrass_examples():
    """The medium form y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 that match_template reads."""

    def medium(fam):
        inv = compute_invariants(fam)
        return inv.b2, 2 * inv.b4, inv.b6

    assert medium(corpus_family("1_0_0_-1_t")) == (poly(1), poly(-4), poly((0, 4)))
    assert medium(corpus_family("1_-2_0_t_0")) == (poly(-7), poly((0, 4)), poly(0))
    zero = family("zero", 0, 0, 0, 0, 0)
    assert medium(zero) == (poly(0), poly(0), poly(0))


# ---------------------------------------------------------------------- fibers


def test_fiber_examples():
    fam = corpus_family("1_0_0_-1_t")
    inv = compute_invariants(fam)
    assert inv.c4 == poly(49)
    assert inv.c6 == poly((-73, -864))
    fib = fiber_at(fam, 0, 5)
    assert (fib.A, fib.B) == ((-27 * 49) % 5, (-54 * -73) % 5) == (2, 2)
    zero = family("zero", 0, 0, 0, 0, 0)
    assert (fiber_at(zero, 3, 7).A, fiber_at(zero, 3, 7).B) == (0, 0)
    big = fiber_at(rank6_family(), 0, 7)
    assert 0 <= big.A < 7 and 0 <= big.B < 7


def test_fiber_modulus_validation():
    fam = corpus_family("1_0_0_-1_t")
    for p in (2, 4, 1, 0, -5):
        with pytest.raises(ValueError):
            fiber_at(fam, 0, p)
    fiber_at(fam, 0, 3)  # odd p = 3 is allowed; reduction identity still holds


def test_fiber_periodic_in_t():
    fam = corpus_family("1_t_-19_-t-1_0")
    for p in (5, 13, 101):
        for t in (0, 1, p - 1):
            assert fiber_at(fam, t, p) == fiber_at(fam, t + p, p)


def test_discriminant_examples():
    assert discriminant(Fiber(5, 0, 0)) == 0
    assert discriminant(Fiber(5, 2, 2)) == (-16 * (4 * 8 + 27 * 4)) % 5 == 0
    assert discriminant(Fiber(5, 1, 0)) == (-64) % 5 == 1


# ------------------------------------------------------------------- templates


def test_match_template_examples():
    assert match_template(corpus_family("1_0_0_-1_t")) == Template1(1, -4, 0, 4)
    assert match_template(corpus_family("1_0_0_t_0")) == Template2(0, 4)
    assert match_template(corpus_family("0_0_0_-t2_t4")) == Template3()
    assert not Template3()  # an empty tuple: callers test a match with `is None`
    assert match_template(corpus_family("1_t_-19_-t-1_0")) is None
    assert match_template(rank6_family()) is None
    # b6 of degree 2 fits no template
    assert match_template(family("q", 0, 0, 0, 0, T * T)) is None


def test_match_template_reconstructs_medium_form():
    for fam in builtin_corpus():
        tpl = match_template(fam)
        if tpl is None:
            continue
        inv = compute_invariants(fam)
        b2, twob4, b6 = inv.b2, 2 * inv.b4, inv.b6
        if isinstance(tpl, Template1):
            assert (b2, twob4, b6) == (poly(tpl.a), poly(tpl.b), tpl.c + tpl.d * T)
            assert tpl.d != 0
        elif isinstance(tpl, Template2):
            assert (b2, twob4, b6) == (poly(4 * tpl.m + 1), tpl.n * T, poly(0))
            assert tpl.n != 0
        else:
            assert (b2, twob4, b6) == (poly(0), -4 * T**2, 4 * T**4)


def test_corpus_template_census():
    kinds = [type(match_template(fam)).__name__ for fam in builtin_corpus()]
    assert kinds.count("Template1") == 10  # nine specializations plus 1_0_0_1_t
    assert kinds.count("Template2") == 3
    assert kinds.count("Template3") == 1
    assert kinds.count("NoneType") == 2


def test_nondegeneracy():
    for fam in builtin_corpus() + [rank6_family()]:
        assert is_nondegenerate(fam), fam.name
    assert not is_nondegenerate(family("zero", 0, 0, 0, 0, 0))
    # 4 a4^3 + 27 a6^2 = 0 identically: a cusp at every t
    assert not is_nondegenerate(family("cusp", 0, 0, 0, -3, 2))


def test_degeneracy_is_decided_exactly():
    # every sample t = 0..9 of a6 = t (t - 1) ... (t - 9) is zero
    a6 = T
    for k in range(1, 10):
        a6 = a6 * (T - k)
    vanishing = family("vanishing", 0, 0, 0, 0, a6)
    assert is_nondegenerate(vanishing)


def test_rank6_family_big_coefficients():
    fam = rank6_family()
    assert fam.expected_rank == 6
    assert max(abs(c) for c in fam.a6.coeffs) > 10**20
    assert fiber_at(fam, 12345, 1009)  # big coefficients reduce cleanly

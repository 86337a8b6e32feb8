from itertools import product

import pytest

from cgraph import FieldContext, Mat2, group_from_matrices

ALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


@pytest.fixture(scope="module")
def gf4():
    return FieldContext(2, 2)


@pytest.fixture(scope="module")
def gf8():
    return FieldContext(2, 3)


def test_construction_validation():
    with pytest.raises(ValueError):
        FieldContext(11)
    with pytest.raises(ValueError):
        FieldContext(2, 5)  # order 32 over the cap
    with pytest.raises(ValueError):
        FieldContext(2, 0)


def test_add_characteristic_two(gf4):
    t = gf4.element(2)
    assert (t + t) == gf4.zero


def test_add_mod_three():
    gf3 = FieldContext(3)
    assert (gf3.element(2) + gf3.element(2)).code == 1


def test_add_gf8_cancellation(gf8):
    t2 = gf8.element((0, 0, 1))
    t2_plus_1 = gf8.element((1, 0, 1))
    assert (t2 + t2_plus_1) == gf8.one


def test_mul_gf4_reduction(gf4):
    t = gf4.element((0, 1))
    assert (t * t).coeffs == (1, 1)  # t^2 = t + 1 under x^2 + x + 1


def test_mul_identity(gf8):
    for x in gf8.elements():
        assert x * gf8.one == x


def test_mul_gf8_reduction(gf8):
    t = gf8.element((0, 1, 0))
    t2 = gf8.element((0, 0, 1))
    assert (t2 * t).coeffs == (1, 1, 0)  # t^3 = t + 1 under x^3 + x + 1


def test_inverse_examples(gf4):
    gf3 = FieldContext(3)
    assert gf3.one.inv() == gf3.one
    assert gf3.element(2).inv().code == 2
    t = gf4.element((0, 1))
    assert t.inv().coeffs == (1, 1)


def test_inverse_of_zero_raises(gf4):
    with pytest.raises(ZeroDivisionError):
        gf4.zero.inv()


def test_context_mismatch_raises(gf4, gf8):
    with pytest.raises(ValueError):
        gf4.one + gf8.one
    with pytest.raises(ValueError):
        gf4.one * gf8.one


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    ctx = FieldContext(p, k)
    elems = ctx.elements()
    for x in elems:
        assert x + ctx.zero == x
        assert x * ctx.one == x
        if x:
            assert x * x.inv() == ctx.one
    for x, y, z in product(elems, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    for x, y in product(elems, repeat=2):
        assert x + y == y + x
        assert x * y == y * x


def test_mat2_algebra():
    gf3 = FieldContext(3)
    identity = Mat2.identity(gf3)
    a = Mat2.of(gf3, 1, 1, 0, 1)
    assert a * identity == a
    assert identity.det() == gf3.one
    assert a.det() == gf3.one  # upper triangular
    assert a * a.inv() == identity


def test_mat2_singular_inverse_raises():
    gf3 = FieldContext(3)
    with pytest.raises(ValueError):
        Mat2.of(gf3, 1, 1, 1, 1).inv()


@pytest.mark.parametrize("q,expected", [(3, 48), (4, 180), (5, 480)])
def test_gl2_order_by_closure(q, expected):
    ctx = FieldContext(*{3: (3, 1), 4: (2, 2), 5: (5, 1)}[q])
    gens = [Mat2.of(ctx, 2, 0, 0, 1), Mat2.of(ctx, 1, 1, 0, 1),
            Mat2.of(ctx, 0, 1, 1, 0)]
    group = group_from_matrices(gens, ctx)
    assert group.order == expected == (q * q - 1) * (q * q - q)


def test_matrix_group_identity_alone():
    gf3 = FieldContext(3)
    assert group_from_matrices([Mat2.identity(gf3)], gf3).order == 1

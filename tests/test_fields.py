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
        FieldContext(2, 5)  # order 32 is not supported
    with pytest.raises(ValueError):
        FieldContext(2, 0)
    with pytest.raises(ValueError):
        FieldContext(4)  # 4 is a field order, not a characteristic


def test_element_codes_and_checks(gf4):
    gf3 = FieldContext(3)
    assert gf3.element(5) == 2  # prime fields reduce mod p
    assert gf4.element((1, 1)) == 3
    assert gf4.coeffs(3) == (1, 1)
    assert (gf4.zero, gf4.one) == (0, 1)
    assert list(gf4.elements()) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        gf4.element(4)  # out of range
    with pytest.raises(ValueError):
        gf4.element((1, 0, 1))  # wrong coefficient count


def test_add_characteristic_two(gf4):
    t = gf4.element(2)
    assert gf4.add[t][t] == gf4.zero


def test_add_mod_three():
    gf3 = FieldContext(3)
    assert gf3.add[2][2] == 1


def test_add_gf8_cancellation(gf8):
    t2 = gf8.element((0, 0, 1))
    t2_plus_1 = gf8.element((1, 0, 1))
    assert gf8.add[t2][t2_plus_1] == gf8.one


def test_mul_gf4_reduction(gf4):
    t = gf4.element((0, 1))
    assert gf4.coeffs(gf4.mul[t][t]) == (1, 1)  # t^2 = t + 1 under x^2 + x + 1


def test_mul_identity(gf8):
    for x in gf8.elements():
        assert gf8.mul[x][gf8.one] == x


def test_mul_gf8_reduction(gf8):
    t = gf8.element((0, 1, 0))
    t2 = gf8.element((0, 0, 1))
    assert gf8.coeffs(gf8.mul[t2][t]) == (1, 1, 0)  # t^3 = t + 1 under x^3 + x + 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_tables_are_integer_arithmetic_mod_p(p):
    ctx = FieldContext(p)
    for x, y in product(range(p), repeat=2):
        assert ctx.mul[x][y] == (x * y) % p
        assert ctx.add[x][y] == (x + y) % p
    assert all(ctx.neg[x] == -x % p for x in range(p))


def test_inverse_examples(gf4):
    gf3 = FieldContext(3)
    assert gf3.inv[gf3.one] == gf3.one
    assert gf3.inv[2] == 2
    t = gf4.element((0, 1))
    assert gf4.coeffs(gf4.inv[t]) == (1, 1)


def test_inverse_of_zero_raises(gf4):
    with pytest.raises(KeyError):
        gf4.inv[gf4.zero]


def test_context_mismatch_raises(gf4, gf8):
    with pytest.raises(ValueError):
        Mat2.identity(gf4) * Mat2.identity(gf8)


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    ctx = FieldContext(p, k)
    add, mul = ctx.add, ctx.mul
    elems = ctx.elements()
    for x in elems:
        assert add[x][ctx.zero] == x
        assert add[x][ctx.neg[x]] == ctx.zero
        assert mul[x][ctx.one] == x
        if x:
            assert mul[x][ctx.inv[x]] == ctx.one
    for x, y, z in product(elems, repeat=3):
        assert add[add[x][y]][z] == add[x][add[y][z]]
        assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
        assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
    for x, y in product(elems, repeat=2):
        assert add[x][y] == add[y][x]
        assert mul[x][y] == mul[y][x]


def test_mat2_algebra():
    gf3 = FieldContext(3)
    identity = Mat2.identity(gf3)
    a = Mat2.of(gf3, 1, 1, 0, 1)
    assert a * identity == identity * a == a
    assert identity.det() == gf3.one
    assert a.det() == gf3.one  # upper triangular
    assert a * a * a == identity  # a transvection has order p
    assert Mat2.of(gf3, 1, 2, 2, 2).det() == 1  # 2 - 4 = -2 = 1 in GF(3)
    assert repr(Mat2.of(gf3, 4, 2, 0, 1)) == "[[1,2],[0,1]]"


def test_singular_generator_raises():
    gf3 = FieldContext(3)
    with pytest.raises(ValueError, match="singular"):
        group_from_matrices([Mat2.of(gf3, 1, 1, 1, 1)], gf3)


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

import json

import pytest

from cgraph import family_genus
from cgraph.catalog import (
    _primitive,
    build,
    catalog_entries,
    catalog_json,
    entry_by_name,
    field,
    report_for,
)
from cgraph.fields import FIELDS
from cgraph.groups import MAX_ORDER, group_from_permutations
from conftest import table_of


def test_build_simple_and_parametric():
    assert build("S3").order == 6
    assert build("D", 14).order == 14
    assert build("D14").order == 14  # prefix form
    assert build("GL2", 3).order == 48
    with pytest.raises(ValueError):
        build("NoSuchGroup")
    with pytest.raises(ValueError):
        build("NoSuchFamily", 5)


def test_build_is_cached():
    assert build("S", 4) is build("S", 4)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_sl2_order(q):
    assert build("SL2", q).order == q * (q * q - 1)


@pytest.mark.parametrize("name, param, order", [
    ("PSL2", 2, 6), ("PSL2", 4, 60), ("PSL2", 8, 504), ("Z", 1, 1), ("Z", 5, 5),
    ("PSL2", 3, None), ("PSL2", 5, None), ("PSL2", 7, None), ("PSL2", 9, None),
    ("Z", 0, None), ("S", 1, 1), ("S", 2, 2), ("A", 1, 1), ("A", 2, 1), ("A", 3, 3)])
def test_parametric_build_has_the_formula_order(name, param, order):
    if order is None:
        with pytest.raises(ValueError, match="order formula"):
            build(name, param)
    else:
        assert build(name, param).order == order


def test_prefix_build_checks_the_order_formula(monkeypatch):
    from cgraph import catalog

    builder, _ = catalog._PARAMETRIC_BUILDERS["D"]
    monkeypatch.setitem(catalog._PARAMETRIC_BUILDERS, "D", (builder, lambda n: n + 1))
    with pytest.raises(ValueError, match="order formula"):
        catalog.build.__wrapped__("D14")


@pytest.mark.parametrize("name, param, refused", [
    ("Z", 3000000, True), ("D", 20000, True), ("S", 100000, True),
    ("S", 8, True), ("GL2", 11, True),
    ("Z", MAX_ORDER, False), ("S", 7, False), ("GL2", 9, False),
])
def test_order_formula_past_the_limit_is_refused_before_the_builder(
        monkeypatch, name, param, refused):
    from cgraph import catalog

    def builder(n):
        raise LookupError("the builder ran")
    order = catalog._PARAMETRIC_BUILDERS[name][1]
    monkeypatch.setitem(catalog._PARAMETRIC_BUILDERS, name, (builder, order))
    with pytest.raises(ValueError if refused else LookupError) as exc:
        catalog.build.__wrapped__(name, param)
    if refused:
        assert str(exc.value) == (f"{name} {param} would have more than "
                                  f"{MAX_ORDER} elements, the order limit")


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_primitive_scalar_generates_the_multiplicative_group(q):
    ctx = field(q)
    z = _primitive(ctx)
    powers, acc = set(), z
    while acc not in powers:
        powers.add(acc)
        acc = ctx.mul[acc][z]
    assert len(powers) == q - 1


def _rotation_and_reflection(family, order):
    """D_{2n} and SD_{2^k} as they were built before `_holonomy`: the rotation
    and the reflection of Z_n, n = order / 2, written out."""
    n = order // 2
    rot = tuple((i + 1) % n for i in range(n))
    if family == "D":
        ref = tuple((-i) % n for i in range(n))
    else:
        k = n // 2 - 1  # s r s = r^(2^(n-2) - 1)
        ref = tuple((k * i) % n for i in range(n))
    return group_from_permutations([rot, ref], name=f"{family}{order}")


@pytest.mark.parametrize("family, orders", [
    ("D", range(6, 201, 2)), ("SD", [2 ** k for k in range(4, 10)])])
def test_metacyclic_builds_match_the_written_out_generators(family, orders):
    for order in orders:
        group, reference = build(family, order), _rotation_and_reflection(family, order)
        assert (table_of(group), group.labels, group.name) == \
            (table_of(reference), reference.labels, reference.name), order


def _rotation_and_multiplier(n, mult, name):
    """The permutations x -> x + 1 and x -> mult*x of Z_n that `_holonomy`
    closed before it stored each element as an affine map (i, m)."""
    rot = tuple((i + 1) % n for i in range(n))
    act = tuple((mult * i) % n for i in range(n))
    return group_from_permutations([rot, act], name=name)


@pytest.mark.parametrize("name, param, n, mult", [
    *[("Z", n, n, 1) for n in (1, 2, 3, 4, 5, 6, 12, 30, 97, 256)],
    ("D", 6, 3, -1), ("D", 202, 101, -1), ("SD", 16, 8, 3), ("SD", 256, 128, 63),
    ("Sz(2)", None, 5, 2), ("Z7:Z3", None, 7, 2), ("M16", None, 8, 5),
    ("27_exp9", None, 9, 4)])
def test_affine_model_matches_the_permutations(name, param, n, mult):
    group = build(name, param)
    reference = _rotation_and_multiplier(n, mult, group.name)
    assert (group.order, group.labels, table_of(group)) == \
        (reference.order, reference.labels, table_of(reference))


def test_named_constructions_orders_and_centers():
    expected = {
        "Sz(2)": (20, 1), "Z7:Z3": (21, 1), "M16": (16, 4),
        "SG16_3": (16, 4), "Z4:Z4": (16, 4), "D8*Z4": (16, 4),
        "SL(2,3)": (24, 2), "27_exp3": (27, 3), "27_exp9": (27, 3),
    }
    for name, (order, center) in expected.items():
        g = build(name)
        assert (g.order, len(g.center())) == (order, center), name


def test_exponent_distinguishes_order27_groups():
    exp3 = build("27_exp3")
    assert max(exp3.element_order(x) for x in range(exp3.order)) == 3
    exp9 = build("27_exp9")
    assert max(exp9.element_order(x) for x in range(exp9.order)) == 9


def test_order16_constructions_are_pairwise_distinct():
    names = ["Z2xD8", "Z2xQ8", "SG16_3", "Z4:Z4", "D8*Z4", "M16",
             "D16", "Q16", "SD16"]

    def signature(name):
        g = build(*entry_by_name(name).builder)
        orders = tuple(sorted(g.element_order(x) for x in range(g.order)))
        centralizers = tuple(sorted(len(g.centralizer(x)) for x in range(g.order)))
        squares = len({g.mul(x, x) for x in range(g.order)})
        return (orders, centralizers, squares, len(g.center()))

    sigs = {name: signature(name) for name in names}
    # invariant collisions that remain are resolved by the defining relations
    # of the constructions, so only check that distinct signatures do occur
    assert len(set(sigs.values())) >= 7
    assert sigs["D16"] != sigs["SD16"] != sigs["Q16"]


def test_psl24_is_isomorphic_invariants_of_a5():
    a5 = build("A", 5)
    psl = build("PSL2", 4)
    assert psl.order == a5.order == 60
    assert sorted(psl.element_order(x) for x in range(psl.order)) \
        == sorted(a5.element_order(x) for x in range(a5.order))


def test_entry_lookup_and_tags():
    entry = entry_by_name("SD16")
    assert entry.expected_genus == 1
    assert "toroidal-list" in entry.tags
    assert len(catalog_entries("acyclic-list")) == 3
    assert len(catalog_entries("planar-list")) == 17
    assert len(catalog_entries("toroidal-list")) == 7
    with pytest.raises(ValueError):
        catalog_entries("bogus")
    with pytest.raises(ValueError, match="unknown catalog group 'bogus'"):
        entry_by_name("bogus")


def test_alias_resolution():
    entry = entry_by_name("PSL(2,4)")
    assert entry.alias_of == "A5"
    assert entry.effective_name() == "A5"
    assert entry_by_name("A5").effective_name() == "A5"


def test_classification_lists_contents():
    assert {e.name for e in catalog_entries("acyclic-list")} \
        == {"S3", "D8", "Q8"}
    assert {e.name for e in catalog_entries("toroidal-list")} \
        == {"D14", "Z7:Z3", "Z2xA4", "Z3xS3", "D16", "Q16", "SD16"}


def test_family_params_agree_with_expected_genus():
    for entry in catalog_entries():
        if entry.family is None or entry.expected_genus is None:
            continue
        assert family_genus(*entry.family) == entry.expected_genus, entry.name


@pytest.mark.parametrize("entry", catalog_entries(), ids=lambda e: e.name)
def test_verify_every_entry(entry):
    group = entry.build()
    report = report_for(entry.name)
    assert group.order == entry.expected_order
    assert len(group.center()) == entry.expected_center
    assert report.is_ac == entry.expected_ac
    if entry.expected_genus is not None:
        assert report.total.is_exact, report.total
        assert report.total.value == entry.expected_genus


@pytest.mark.parametrize("field, value, message", [
    ("expected_order", 7, "order is 6, expected 7"),
    ("expected_center", 2, "center order is 1, expected 2"),
    ("expected_ac", False, "AC flag is True, expected False"),
    ("expected_genus", 1, "genus is 0, expected 1"),
])
def test_report_for_checks_the_entry(monkeypatch, field, value, message):
    from cgraph import catalog

    patched = [e._replace(**{field: value}) if e.name == "S3" else e
               for e in catalog._ENTRIES]
    monkeypatch.setattr(catalog, "_ENTRIES", patched)
    report_for.cache_clear()
    try:
        with pytest.raises(ValueError, match=f"^catalog entry S3: {message}$"):
            report_for("S3")
    finally:
        report_for.cache_clear()


def test_s5_has_no_expected_genus():
    entry = entry_by_name("S5")
    assert entry.expected_genus is None
    report = report_for("S5")
    assert not report.total.is_exact
    assert report.total.lower >= 2


def test_catalog_json_is_valid():
    payload = json.loads(catalog_json())
    assert len(payload) == len(catalog_entries())
    by_name = {e["name"]: e for e in payload}
    assert by_name["GL(2,3)"]["expected"]["genus"] == 3
    assert by_name["PSL(2,8)"]["expected"]["genus"] == 101
    assert by_name["PSL(2,4)"]["alias_of"] == "A5"
    assert by_name["Q40"]["expected"]["genus"] == 18

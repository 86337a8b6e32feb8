import itertools
import operator
import random
from collections import Counter
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgraph import (
    direct_product,
    group_from_file_text,
    group_from_operation,
    group_from_permutations,
    group_from_table,
)
from cgraph.catalog import build, catalog_entries
from cgraph.groups import MAX_ORDER, perm_cycle_label
from cgraph.textformat import parse_cycles
from cgraph.engine import commuting_graph
from conftest import LATIN5, peak_bytes, permutation_generators, table_of


def s3():
    return build("S", 3)


def test_s3_generation():
    g = s3()
    assert g.order == 6
    assert len(g.center()) == 1
    assert sorted(g.element_order(x) for x in range(g.order)) == [1, 2, 2, 2, 3, 3]


def test_sz2_closure_count():
    # <(1 2 3 4 5), (2 3 5 4)> closes to 20 elements (checked by brute force)
    g = group_from_permutations([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)])
    assert g.order == 20
    assert len(g.center()) == 1


def test_empty_generator_list_gives_trivial_group():
    assert group_from_permutations([]).order == 1


def test_non_bijection_generator_raises():
    with pytest.raises(ValueError):
        group_from_permutations([(0, 0, 1)])


def test_closure_cap():
    # S8 (order 40320) stops once the BFS passes MAX_ORDER; GL(2,9) still fits
    assert MAX_ORDER >= 5760
    with pytest.raises(ValueError, match=f"more than {MAX_ORDER} elements"):
        group_from_permutations([(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])


def table_text(rows):
    """A group file holding `rows` as its table."""
    return f"order {len(rows)}\ntable\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows)


def test_table_validation():
    """`group_from_table`'s messages; a group file gets them at its table line."""
    for rows, message, file_message in [
        # a row of the wrong length is caught by the parser, at its own line
        ([[0, 1], [1]], "row 1 has length 1, expected 2",
         "line 4: expected 2 entries, got 1"),
        # a row longer than n passes the permutation check
        ([[0, 1], [1, 0, 1]], "row 1 has length 3, expected 2",
         "line 4: expected 2 entries, got 3"),
        ([[0, 0], [1, 0]], "row 0 is not a permutation of 0..1", None),
        ([[0, 1], [0, 1]], "column 0 is not a permutation of 0..1", None),
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]],  # x*y = -x-y mod 3
         "table has no identity element", None),
        ([[1, 0], [0, 1]], "identity must be at index 0", None),
        # a file refuses order 0 at its header
        ([], "table has no identity element", "line 1: group order must be at least 1"),
        ([[int(x) for x in row.split()] for row in LATIN5.splitlines()[2:]],
         "table is not associative: (1*1)*2 != 1*(1*2)", None),
    ]:
        with pytest.raises(ValueError) as exc:
            group_from_table(rows)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            group_from_file_text(table_text(rows))
        assert str(exc.value) == (file_message or f"line 2: {message}")


@pytest.mark.parametrize("make", [
    *(pytest.param(e.build, id=e.name) for e in catalog_entries()),
    pytest.param(lambda: build("Q", 16).quotient(build("Q", 16).center()), id="Q16/Z"),
    pytest.param(lambda: direct_product(build("S", 3), build("D", 8)), id="S3xD8"),
])
def test_closure_tables_pass_the_file_check(make):
    """The closure's tables are group tables: the file check, Light's test
    included, accepts each one unchanged.  A table file carries no labels."""
    group = make()
    table = table_of(group)
    checked = group_from_file_text(table_text(table))
    assert table_of(checked) == table
    assert checked.labels == [str(i) for i in range(group.order)]


def assert_group_sane(g, exhaustive_limit=48):
    """Spot-check associativity and inverses (one 0 in each row) of a
    closure-built table, which no constructor checks."""
    n = g.order
    if n <= exhaustive_limit:
        triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    else:
        rng = random.Random(7)
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(20000)]
    for a, b, c in triples:
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert all(row.count(0) == 1 for row in table_of(g))


@pytest.mark.parametrize("name,param", [
    ("S", 4), ("Q", 16), ("SD", 16), ("Sz(2)", None), ("SG16_3", None),
    ("D8*Z4", None), ("SL(2,3)", None), ("27_exp3", None), ("S", 5),
])
def test_constructions_are_groups(name, param):
    assert_group_sane(build(name, param))


def test_direct_product_orders_and_centers():
    z2d8 = build("Z2xD8")
    assert z2d8.order == 16 and len(z2d8.center()) == 4
    z3s3 = build("Z3xS3")
    assert z3s3.order == 18 and len(z3s3.center()) == 3


def test_direct_product_with_trivial_factor():
    g = s3()
    trivial = group_from_permutations([])
    prod = direct_product(trivial, g)
    assert prod.order == g.order
    assert table_of(prod) == table_of(g)  # same table up to relabeling


def test_direct_product_cap():
    with pytest.raises(ValueError, match=f"more than {MAX_ORDER} elements, the order limit"):
        direct_product(build("S", 5), build("S", 5))


def test_quotient_by_center():
    q8 = build("Q", 8)
    quot = q8.quotient(q8.center())
    assert quot.order == 4
    assert all(quot.element_order(x) <= 2 for x in range(quot.order))
    d8 = build("D", 8)
    assert d8.quotient(d8.center()).order == 4
    z4 = build("Z", 4)
    assert z4.quotient(z4.center()).order == 1


def test_quotient_requires_normal_subgroup():
    g = build("S", 4)
    reflection = next(x for x in range(g.order) if g.element_order(x) == 2)
    with pytest.raises(ValueError, match="not normal"):
        g.quotient(g.subgroup_closure([reflection]))
    # closed under conjugation but not subgroups: {1} and a class each
    three_cycles = {x for x in range(g.order) if g.element_order(x) == 3}
    assert len(three_cycles) == 8
    with pytest.raises(ValueError, match="not a subgroup"):
        g.quotient({0} | three_cycles)
    sym3 = s3()
    transpositions = {x for x in range(6) if sym3.element_order(x) == 2}
    assert len(transpositions) == 3
    with pytest.raises(ValueError, match="not a subgroup"):
        sym3.quotient({0} | transpositions)
    # the double transpositions (centralizer of order 8) and the identity form
    # the normal Klein four-group V4, outside the center, and S4 / V4 is S3
    v4 = {0} | {x for x in range(g.order)
                if g.element_order(x) == 2 and len(g.centralizer(x)) == 8}
    assert len(v4) == 4
    quot = g.quotient(v4)
    assert quot.order == 6 and len(quot.center()) == 1


def test_indices_outside_the_group_are_refused():
    # -1 would read the last element, and 7 lies past S3's six
    g = s3()
    with pytest.raises(ValueError, match=r"index -1 is outside 0\.\.5"):
        g.subgroup_closure([-1])
    with pytest.raises(ValueError, match=r"index 7 is outside 0\.\.5"):
        g.quotient({0, 7})
    # and so do products, centralizers and orders: on D8, -1 would read
    # element 7 and 8 would raise IndexError
    g = build("D", 8)
    with pytest.raises(ValueError, match=r"index -1 is outside 0\.\.7"):
        g.centralizer(-1)
    with pytest.raises(ValueError, match=r"index 8 is outside 0\.\.7"):
        g.centralizer(8)
    with pytest.raises(ValueError, match=r"index -1 is outside 0\.\.7"):
        g.mul(0, -1)
    with pytest.raises(ValueError, match=r"index 8 is outside 0\.\.7"):
        g.mul(8, 0)
    with pytest.raises(ValueError, match=r"index 8 is outside 0\.\.7"):
        g.element_order(8)


def test_center_and_centralizer_examples():
    assert len(s3().center()) == 1
    assert len(build("D", 8).center()) == 2
    d12 = build("D", 12)
    rotation = next(x for x in range(d12.order) if d12.element_order(x) == 6)
    assert len(d12.centralizer(rotation)) == 6


def test_orbit_stabilizer():
    for name, param in [("S", 4), ("D", 12), ("SL(2,3)", None)]:
        g = build(name, param)
        inverse = [row.index(0) for row in table_of(g)]
        for x in range(g.order):
            conjugates = {g.mul(g.mul(h, x), inverse[h]) for h in range(g.order)}
            assert len(conjugates) * len(g.centralizer(x)) == g.order


def test_center_is_intersection_of_centralizers():
    g = build("SL(2,3)")
    expected = set(range(g.order))
    for x in range(g.order):
        expected &= set(g.centralizer(x))
    assert expected == set(g.center())


def test_is_ac_group():
    for order in (6, 8, 10, 12, 14, 16):
        assert build("D", order).is_ac_group()
    assert not build("S", 4).is_ac_group()
    assert build("Z", 6).is_ac_group()  # vacuously


def test_centralizer_family_examples():
    assert Counter(len(m) for m in build("D", 12).centralizer_family()) \
        == {4: 1, 2: 3}
    assert Counter(len(m) for m in build("Q", 8).centralizer_family()) \
        == {2: 3}
    assert Counter(len(m) for m in build("GL2", 3).centralizer_family()) \
        == {2: 6, 6: 3, 4: 4}


def test_centralizer_family_requires_non_abelian():
    with pytest.raises(ValueError):
        build("Z", 6).centralizer_family()


def test_centralizer_family_covers_and_partitions():
    for name, param in [("D", 14), ("Q", 16), ("SL(2,3)", None)]:
        g = build(name, param)
        center = set(g.center())
        union = set()
        total = 0
        for member in g.centralizer_family():
            union |= set(member)
            total += len(member)
        assert union == set(range(g.order)) - center
        if g.is_ac_group():
            assert total == len(union)  # pairwise disjoint


def test_ac_product_scaling():
    # A x G for abelian A: family member sizes scale by |A|
    base = build("D", 8)
    sizes = sorted(map(len, base.centralizer_family()))
    prod = direct_product(build("Z", 3), base)
    assert prod.is_ac_group()
    assert sorted(map(len, prod.centralizer_family())) == [3 * s for s in sizes]


def test_abelian_subgroup_enumeration():
    def orders(group):
        return {len(h) for h in group.abelian_subgroups()}
    assert max(orders(build("D", 16))) == 8
    assert 8 in orders(build("Z2xD8"))
    assert max(orders(build("Z", 6))) == 6
    # Q40 has an element of order 20, hence an abelian subgroup of order 10
    assert 10 in orders(build("Q", 40))


@settings(max_examples=40, deadline=None)
@given(permutation_generators(max_degree=5))
def test_abelian_subgroups_are_the_two_generated_commuting_closures(gens):
    """Against an oracle that walks nothing: in a permutation group of degree
    at most 5, a subgroup of S5, every abelian subgroup is cyclic or a Klein
    four-group, so generated by two commuting elements, and the set is the
    closures of the commuting pairs.  Degree 6 would break it: S6 holds
    (Z2)^3, which needs three generators."""
    group = group_from_permutations(gens)
    pairs = {group.subgroup_closure({a, b})
             for a in range(group.order) for b in group.centralizer(a)}
    assert group.abelian_subgroups() == pairs


def test_abelian_subgroups_match_closing_each_cyclic_subgroup_per_extension():
    # the walk closes H | {z} at every extension; the reference forms the
    # product H<z> instead, which is the same subgroup as z centralizes H
    def per_extension(group):
        table = table_of(group)
        found = {frozenset({0})}
        work = list(found)
        while work:
            h = work.pop()
            for z in set(range(group.order)).intersection(*map(group.centralizer, h)) - h:
                cyclic = group.subgroup_closure([z])
                ext = frozenset(table[x][p] for x in h for p in cyclic)
                if ext not in found:
                    found.add(ext)
                    work.append(ext)
        return found

    for entry in catalog_entries():
        group = entry.build()
        if not group.is_abelian():
            assert group.abelian_subgroups() == per_extension(group), entry.name


def test_quotient_exponent():
    assert build("Q", 8).quotient_exponent() == 2
    assert build("D", 10).quotient_exponent() == 5
    assert build("SL(2,3)").quotient_exponent() == 3
    with pytest.raises(ValueError):
        build("Z", 4).quotient_exponent()


def test_quotient_exponent_matches_every_elements_own_walk():
    # the reference walks each element's powers on its own, settling nothing;
    # the reversed relabelling (identity kept at 0) changes which element of
    # each cyclic subgroup is walked first
    def per_element(g):
        z, t = set(g.center()), table_of(g)

        def order_mod_center(x):
            k, acc = 1, x
            while acc not in z:
                acc = t[acc][x]
                k += 1
            return k
        return max(map(order_mod_center, range(g.order)))

    for entry in catalog_entries():
        g = entry.build()
        if not g.is_abelian():
            n = g.order
            rev = [-i % n for i in range(n)]
            reversed_table = [[0] * n for _ in range(n)]
            for i, row in enumerate(table_of(g)):
                for j, ij in enumerate(row):
                    reversed_table[rev[i]][rev[j]] = rev[ij]
            for h in (g, group_from_table(reversed_table)):
                assert h.quotient_exponent() == per_element(h), entry.name


def test_quotient_exponent_is_max_order_in_quotient_by_center():
    for entry in catalog_entries():
        g = entry.build()
        if not g.is_abelian():
            q = g.quotient(g.center())
            assert g.quotient_exponent() == max(map(q.element_order, range(q.order))), entry.name


def test_dihedral_center_parity():
    for order in range(6, 26, 2):
        g = build("D", order)
        assert len(g.center()) == (2 if (order // 2) % 2 == 0 else 1)


def test_parse_cycles():
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("()", 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("1 2", 4)
    # a point in two cycles of one line is refused, not read as the last cycle
    with pytest.raises(ValueError, match="point 3 is in two cycles"):
        parse_cycles("(1 2 3)(3 2 1)", 3)
    with pytest.raises(ValueError, match="point 1 is in two cycles"):
        parse_cycles("(1 2)(1 3)", 3)
    with pytest.raises(ValueError, match="point 2 is in two cycles"):
        parse_cycles("(1 2)(2)", 3)


def test_group_file_table_roundtrip():
    g = s3()
    lines = [f"order {g.order}", "table"]
    lines += [" ".join(str(v) for v in row) for row in table_of(g)]
    parsed = group_from_file_text("\n".join(lines))
    assert table_of(parsed) == table_of(g)


def test_group_file_perm_generators():
    text = "order 6\nperm-generators 3\n(1 2)\n(1 2 3)\n"
    g = group_from_file_text(text)
    assert g.order == 6
    assert not g.is_abelian()


def test_repeated_generator_lines_are_parsed_once():
    header = f"order 2\nperm-generators {MAX_ORDER}\n"
    once = group_from_file_text(header + "(1 2)\n")
    # one line 2000 times, and 502 spellings of the same permutation
    spellings = "".join(f"(1{' ' * k}2)\n" for k in range(1, 501)) + "(2 1)\n(1,2)\n"
    for body in ("(1 2)\n" * 2000, spellings):
        parsed = []
        peak = peak_bytes(lambda: parsed.append(group_from_file_text(header + body)))
        repeated, = parsed
        assert repeated.order == 2
        assert table_of(repeated) == table_of(once)
        assert peak < 50 * 2**20  # a parsed degree-6000 tuple takes about 220 KiB


def test_group_file_errors_report_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        group_from_file_text("nonsense")
    with pytest.raises(ValueError, match="line 3"):
        group_from_file_text("order 2\ntable\n0 1 2\n1 0")
    with pytest.raises(ValueError, match="line 3"):
        group_from_file_text("order 6\nperm-generators 3\n(1 9)\n")
    with pytest.raises(ValueError, match="header says 6"):
        group_from_file_text("order 6\nperm-generators 3\n(1 2)\n")


def test_group_from_operation_rejects_oversized_model():
    n = MAX_ORDER + 1
    with pytest.raises(ValueError, match=f"more than {MAX_ORDER} elements, the order limit"):
        group_from_operation([1], lambda a, b: (a + b) % n, 0)


@pytest.mark.parametrize("n", [2, 3, 5, 11, 25])
def test_dicyclic_relations(n):
    """Q_{4n} = <x, y | y^{2n} = 1, x^2 = y^n, x y x^-1 = y^-1>."""
    g = build("Q", 4 * n)
    element = {lbl: i for i, lbl in enumerate(g.labels)}
    x, y = element["x"], element["y^1"]
    assert g.element_order(y) == 2 * n
    assert g.mul(x, x) == element[f"y^{n}"]
    inverse = [row.index(0) for row in table_of(g)]
    assert g.mul(g.mul(x, y), inverse[x]) == inverse[y]


def plain_closure(gens):
    """The permutations that `gens` generate, in the closure's BFS order,
    and each one's index, found by composing permutations alone."""
    identity = tuple(range(len(gens[0]) if gens else 1))
    elements, index = [identity], {identity: 0}
    for g in elements:
        for s in gens:
            h = tuple(map(g.__getitem__, s))
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
    return elements, index


@settings(max_examples=40, deadline=None)
@given(permutation_generators())
def test_closure_table_matches_plain_composition(gens):
    """The lookup-filled table equals composition over the same BFS order."""
    group = group_from_permutations(gens)
    elements, index = plain_closure(gens)
    table = [tuple(index[tuple(map(a.__getitem__, b))] for b in elements)
             for a in elements]
    assert table_of(group) == table
    assert group.labels == [perm_cycle_label(p) for p in elements]


@settings(max_examples=40, deadline=None)
@given(permutation_generators(max_degree=5))
def test_mul_matches_composing_the_permutations(gens):
    """Each product x*y, x pushed through y's tree word, against composing
    the two permutations, an oracle that reads no tree."""
    group = group_from_permutations(gens)
    elements, index = plain_closure(gens)
    for x, a in enumerate(elements):
        for y, b in enumerate(elements):
            assert group.mul(x, y) == index[tuple(map(a.__getitem__, b))]


@settings(max_examples=40, deadline=None)
@given(permutation_generators(max_degree=5))
def test_random_closure_table_passes_the_file_check(gens):
    table = table_of(group_from_permutations(gens))
    assert table_of(group_from_file_text(table_text(table))) == table


@settings(max_examples=25, deadline=None)
@given(permutation_generators(max_degree=4), permutation_generators(max_degree=4))
def test_product_and_quotient_tables_match_labels(gens_a, gens_b):
    """Each entry of A x B is the componentwise product, and each entry of
    G/Z(G) the coset of the product, with elements found by their labels."""
    a, b = group_from_permutations(gens_a), group_from_permutations(gens_b)
    prod = direct_product(a, b)
    assert prod.order == a.order * b.order
    pair = {lbl: i for i, lbl in enumerate(prod.labels)}
    index = [[pair[f"({la},{lb})"] for lb in b.labels] for la in a.labels]
    pt, at, bt = table_of(prod), table_of(a), table_of(b)
    for i, j, k, m in itertools.product(range(a.order), range(b.order), repeat=2):
        assert pt[index[i][j]][index[k][m]] == index[at[i][k]][bt[j][m]]

    g = prod
    center = g.center()
    quot = g.quotient(center)
    assert quot.order * len(center) == g.order
    coset = {lbl: i for i, lbl in enumerate(quot.labels)}
    # a coset is labelled by its least member
    gt, qt = table_of(g), table_of(quot)
    of = [coset[f"{g.labels[min(gt[x][z] for z in center)]}N"]
          for x in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            assert qt[of[x]][of[y]] == of[gt[x][y]]


@settings(max_examples=40, deadline=None)
@given(permutation_generators())
def test_commutation_queries_match_pairwise_table(gens):
    """Center, centralizers, AC test, family and quotient exponent against
    pairwise products read straight from the table."""
    group = group_from_permutations(gens)
    t, n = table_of(group), group.order
    cent = [tuple(y for y in range(n) if t[x][y] == t[y][x]) for x in range(n)]
    center = tuple(x for x in range(n) if len(cent[x]) == n)
    assert [group.centralizer(x) for x in range(n)] == cent
    assert group.center() == center
    assert group.is_abelian() == (len(center) == n)
    distinct = {cent[x] for x in range(n) if x not in center}  # of non-central x
    assert group.is_ac_group() == all(t[a][b] == t[b][a]
                                      for c in distinct for a in c for b in c)
    if not distinct:
        return
    family = {tuple(y for y in c if y not in center) for c in distinct}
    assert group.centralizer_family() == tuple(sorted(family))

    def coset_order(x):  # distinct cosets among x^i Z
        powers = [0]
        while len(powers) == 1 or powers[-1] != 0:
            powers.append(t[powers[-1]][x])
        return len({frozenset(t[p][z] for z in center) for p in powers})
    assert group.quotient_exponent() == max(map(coset_order, range(n)))


def test_non_associative_table_is_rejected():
    with pytest.raises(ValueError, match="line 2: table is not associative"):
        group_from_file_text(LATIN5)


def scanned_centralizers(group):
    """The oracle: row x against column x of the full table, the scan that
    gave every centralizer before they were found class by class."""
    ids, table = list(range(group.order)), table_of(group)
    return [tuple(compress(ids, map(operator.eq, row, col)))
            for row, col in zip(table, zip(*table))]


def assert_class_functions_match_the_table(group):
    """Centralizers, center, element orders and the quotient exponent
    against the oracle scan and power walks over the table."""
    t, n = table_of(group), group.order
    cent = scanned_centralizers(group)
    assert [group.centralizer(x) for x in range(n)] == cent
    center = tuple(x for x in range(n) if len(cent[x]) == n)
    assert group.center() == center

    def order(x, stop):
        k, acc = 1, x
        while acc not in stop:
            acc = t[acc][x]
            k += 1
        return k
    assert [group.element_order(x) for x in range(n)] == [order(x, {0}) for x in range(n)]
    if len(center) < n:
        z = set(center)
        assert group.quotient_exponent() == max(order(x, z) for x in range(n))


def relabelled_table(group, relabel):
    """The table of `group` with element x renamed relabel[x]."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for x, row in enumerate(table_of(group)):
        for y, xy in enumerate(row):
            table[relabel[x]][relabel[y]] = relabel[xy]
    return table


@settings(max_examples=60, deadline=None)
@given(permutation_generators(), st.randoms(use_true_random=False))
def test_class_by_class_centralizers_match_the_table_scan(gens, rnd):
    """A closure, and a table file of it with its non-identity indices
    shuffled, so that the tree read from the table is not in index order."""
    group = group_from_permutations(gens)
    assert_class_functions_match_the_table(group)
    n = group.order
    shuffled = group_from_table(relabelled_table(group, [0] + rnd.sample(range(1, n), n - 1)))
    assert not hasattr(shuffled, "table")  # only the tree is kept
    assert_class_functions_match_the_table(shuffled)


@pytest.mark.parametrize("entry", catalog_entries(), ids=lambda e: e.name)
def test_catalog_centralizers_match_the_table_scan(entry):
    group = entry.build()
    assert_class_functions_match_the_table(group)
    n = group.order
    relabel = [0] + random.Random(n).sample(range(1, n), n - 1)
    assert_class_functions_match_the_table(group_from_table(relabelled_table(group, relabel)))


@pytest.mark.parametrize("name, order", [("D", 400), ("Q", 400), ("SD", 256)])
def test_deep_bfs_trees_match_the_table_scan(name, order):
    """The genus-dihedral groups, whose BFS words run 35 to 101 generators
    deep, against at most 11 for a catalog entry's (S5).  The closure, and
    a table file of it with its indices shuffled."""
    group = build(name, order)
    assert_class_functions_match_the_table(group)
    relabel = [0] + random.Random(order).sample(range(1, order), order - 1)
    assert_class_functions_match_the_table(group_from_table(relabelled_table(group, relabel)))


def table_closure(table, seed) -> frozenset:
    """The subgroup that `seed` generates, closed under the table's product."""
    members, todo = {0}, [0]
    for x in todo:  # `todo` grows while it is walked
        for g in seed:
            if table[x][g] not in members:
                members.add(table[x][g])
                todo.append(table[x][g])
    return frozenset(members)


@settings(max_examples=40, deadline=None)
@given(permutation_generators(), st.randoms(use_true_random=False), st.data())
def test_greedy_picks_and_subgroup_closures_match_the_table(gens, rnd, data):
    """`generators()` and `subgroup_closure` of a closure, and of a table
    file of it with its non-identity indices shuffled, against a plain loop
    over the table: each index, in order, that the table closure of the
    earlier picks does not hold."""
    group = group_from_permutations(gens)
    n = group.order
    shuffled = group_from_table(relabelled_table(group, [0] + rnd.sample(range(1, n), n - 1)))
    seed = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    for g in (group, shuffled):
        table, picks, generated = table_of(g), [], {0}
        for x in range(n):
            if x not in generated:
                picks.append(x)
                generated = table_closure(table, picks)
        assert g.generators() == picks
        assert g.subgroup_closure(seed) == table_closure(table, seed)


def test_table_file_tree_keeps_the_indices():
    """The tree of a table is its BFS over the greedy generators' columns,
    with each index kept: every y = p*s is a table entry."""
    group = build("S", 4)
    n = group.order
    relabel = [0] + random.Random(1).sample(range(1, n), n - 1)
    table = relabelled_table(group, relabel)
    shuffled = group_from_table(table)
    right, parents, bfs = shuffled._tree
    gens = shuffled.generators()
    assert right == [[row[g] for row in table] for g in gens]
    assert sorted(bfs) == list(range(n)) and bfs != list(range(n))
    for y in bfs[1:]:
        p, s = parents[y]
        assert bfs.index(p) < bfs.index(y) and table[p][gens[s]] == y


def test_center_is_computed_once():
    group = build("Q", 12)
    assert group.center() is group.center()
    assert isinstance(group.center(), tuple)


def _quotient_by_center(group):
    return group.quotient(group.center())


@pytest.mark.parametrize("run", [
    pytest.param(lambda: build.__wrapped__("GL2", 9).generators(), id="GL(2,9) generators"),
    pytest.param(lambda: _quotient_by_center(build.__wrapped__("GL2", 9)), id="GL(2,9)/Z"),
    pytest.param(lambda: commuting_graph(direct_product(
        build.__wrapped__("Z", 2), build.__wrapped__("GL2", 7))), id="Z2xGL(2,7) report"),
])
def test_products_need_no_table(run):
    """Greedy generators, a quotient and a direct product, each built from
    generator actions alone: a 5760-element table would take about 528 MiB,
    and these peak at a few MiB.  `__wrapped__` skips the build cache."""
    assert peak_bytes(run) < 64 * 2**20

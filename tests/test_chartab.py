"""Exact character tables and the class-triple witness test."""

import dataclasses
import gc
import random
import weakref
from functools import lru_cache

import pytest

from helpers import class_algebra_consistent, class_mult_coefficient, recheck_witness, sum_of_products
from spreadcheck import catalog, chartab, cli
from spreadcheck.chartab import (
    CharTripleRefutation,
    CharWitnessSpec,
    _class_tensor,
    character_triple_check,
    character_triple_search,
    class_orbit_partition,
    column_orthogonality_holds,
    dixon_character_table,
    dixon_prime,
    row_orthogonality_holds,
    validate_character_witness,
)
from spreadcheck.cyclotomic import CyclotomicValue, from_coefficients
from spreadcheck.diagonal import DiagonalGroup
from spreadcheck.errors import CapExceeded, VerificationInconsistency
from spreadcheck.perm import Permutation, PermutationGroup
from spreadcheck.tables import GroupTable, build_group_table


@lru_cache(maxsize=None)
def _ct(name):
    return dixon_character_table(catalog.load_group_table(name))


@lru_cache(maxsize=None)
def _c3_table():
    return build_group_table(PermutationGroup([Permutation((1, 2, 0))]), name="C3")


def _named(table, specs):
    names = table.class_names()
    return [(names[s.r_class], names[s.s1_class], names[s.s2_class]) for s in specs]


@pytest.mark.parametrize(
    "exponent,order,k,expected",
    [
        (30, 60, 5, 31),
        (84, 168, 6, 337),
        (60, 360, 7, 61),
        (126, 504, 9, 127),
        (1320, 7920, 10, 1321),
        (6, 6, 6, 7),
        # the class-count floor matters when 2*sqrt(order) is tiny
        (2, 4, 30, 31),
    ],
)
def test_dixon_prime(exponent, order, k, expected):
    p = dixon_prime(exponent, order, k)
    assert p == expected
    assert p % exponent == 1
    assert p > k


class TestSmallTables:
    def test_rotation_group_of_order_three(self):
        ct = dixon_character_table(_c3_table())
        assert ct.prime == 7
        assert ct.degrees == (1, 1, 1)
        assert ct.class_names == ("1A", "3A", "3B")
        one = CyclotomicValue.from_int(1)
        z, z2 = from_coefficients(3, [0, 1]), from_coefficients(3, [0, 0, 1])
        expected = [(one, one, one), (one, z, z2), (one, z2, z)]
        matched = []
        for row in ct.rows:
            hits = [i for i, exp in enumerate(expected) if all(a == b for a, b in zip(row, exp))]
            assert len(hits) == 1
            matched.append(hits[0])
        assert sorted(matched) == [0, 1, 2]


FROZEN_TABLES = {
    "A5": (31, (1, 3, 3, 4, 5), ("1A", "5A", "5B", "2A", "3A"), (1, 12, 12, 15, 20)),
    "PSL(2,7)": (337, (1, 3, 3, 6, 7, 8), ("1A", "2A", "7A", "7B", "4A", "3A"), (1, 21, 24, 24, 42, 56)),
    "A6": (61, (1, 5, 5, 8, 8, 9, 10), ("1A", "3A", "3B", "2A", "5A", "5B", "4A"), (1, 40, 40, 45, 72, 72, 90)),
    "PSL(2,8)": (127, (1, 7, 7, 7, 7, 8, 9, 9, 9), ("1A", "3A", "9A", "9B", "9C", "2A", "7A", "7B", "7C"), None),
    "PSL(2,11)": (331, (1, 5, 5, 10, 10, 11, 12, 12), ("1A", "2A", "11A", "11B", "3A", "6A", "5A", "5B"), None),
}


@pytest.mark.parametrize("name", sorted(FROZEN_TABLES))
def test_frozen_table_shape(name):
    prime, degrees, names, sizes = FROZEN_TABLES[name]
    ct = _ct(name)
    assert ct.prime == prime
    assert ct.degrees == degrees
    assert ct.class_names == names
    if sizes is not None:
        assert ct.class_sizes == sizes
    assert sum(d * d for d in ct.degrees) == ct.group_order
    assert all(ct.group_order % d == 0 for d in ct.degrees)
    # the trivial character comes first
    assert ct.degrees[0] == 1
    assert all(v == CyclotomicValue.from_int(1) for v in ct.rows[0])


@pytest.mark.parametrize("name", sorted(FROZEN_TABLES))
def test_orthogonality(name):
    ct = _ct(name)
    assert row_orthogonality_holds(ct)
    assert column_orthogonality_holds(ct)


def test_orthogonality_checker_rejects_tampering():
    ct = _ct("A5")
    tampered = dataclasses.replace(ct, rows=(ct.rows[0], ct.rows[0]) + ct.rows[2:])
    assert not row_orthogonality_holds(tampered)


def test_orthogonality_checkers_reject_a_tampered_irrational_entry():
    """One degree-3 character of A5 with its values on 5A and 5B swapped is
    the other degree-3 character; only the irrational terms see it."""
    ct = _ct("A5")
    c5a, c5b = 1, 2
    row = list(ct.rows[1])
    assert not row[c5a].is_rational and not row[c5b].is_rational
    row[c5a], row[c5b] = row[c5b], row[c5a]
    tampered = dataclasses.replace(ct, rows=(ct.rows[0], tuple(row)) + ct.rows[2:])
    assert not row_orthogonality_holds(tampered)
    assert not column_orthogonality_holds(tampered)


def test_column_orthogonality_rejects_a_tampered_rational_entry():
    """The degree-4 character of A5 with its value on 3A raised by one: the
    3A column is all rational, so only the integer sums see it."""
    ct = _ct("A5")
    c3a = 4
    row = list(ct.rows[3])
    assert all(r[c3a].is_rational for r in ct.rows)
    row[c3a] = CyclotomicValue.from_int(row[c3a].as_int() + 1)
    tampered = dataclasses.replace(ct, rows=ct.rows[:3] + (tuple(row),) + ct.rows[4:])
    assert not column_orthogonality_holds(tampered)


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "PSL(2,8)", "PSL(2,13)", "M11"])
def test_orthogonality_checkers_reject_every_raised_coefficient(name):
    """Every table made by raising one stored coefficient of one entry by one
    fails both the row and the column check."""
    ct = _ct(name)
    tampered = 0
    for i, row in enumerate(ct.rows):
        for l, v in enumerate(row):
            for t in range(len(v.coeffs)):
                raised = list(v.coeffs)
                raised[t] += 1
                new_row = row[:l] + (from_coefficients(v.order, raised),) + row[l + 1:]
                table = dataclasses.replace(ct, rows=ct.rows[:i] + (new_row,) + ct.rows[i + 1:])
                assert not row_orthogonality_holds(table), (i, l, t)
                assert not column_orthogonality_holds(table), (i, l, t)
                tampered += 1
    assert tampered >= ct.num_classes ** 2


def test_orthogonality_checkers_reject_a_tampered_all_rational_row(monkeypatch):
    """The degree-4 character of A5 is rational everywhere, as is the 2A
    column.  Its value on 2A raised by one is caught by the integer sums
    alone: with every reduction reading 0, the true table still passes and
    the tampered one fails both checks."""
    ct = _ct("A5")
    c2a = 3
    row = list(ct.rows[3])
    assert all(v.is_rational for v in row) and all(r[c2a].is_rational for r in ct.rows)
    row[c2a] = CyclotomicValue.from_int(row[c2a].as_int() + 1)
    tampered = dataclasses.replace(ct, rows=ct.rows[:3] + (tuple(row),) + ct.rows[4:])
    monkeypatch.setattr(chartab, "_reduce", lambda coeffs, n: [0])
    assert row_orthogonality_holds(ct) and column_orthogonality_holds(ct)
    assert not row_orthogonality_holds(tampered)
    assert not column_orthogonality_holds(tampered)


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "PSL(2,8)", "PSL(2,13)", "M11"])
def test_orthogonality_kernel_matches_the_oracle(name):
    """Two rows or two columns of one table, with the table's weights or
    random ones: the kernel's verdict is that of three exact sums through
    the oracle helpers.sum_of_products, each norm set to the oracle's own
    when that is an integer."""
    ct = _ct(name)
    columns = [tuple(row[l] for row in ct.rows) for l in range(ct.num_classes)]
    rng = random.Random(name)
    verdicts = []
    for vectors, natural in ((ct.rows, list(ct.class_sizes)), (columns, [1] * len(ct.rows))):
        for _ in range(40):
            pair = [rng.choice(vectors), rng.choice(vectors)]
            weights = natural if rng.random() < 0.5 else [rng.randint(-3, 3) for _ in natural]
            sums = [[sum_of_products((w, (a, b.conjugate())) for w, a, b in zip(weights, u, v)) for v in pair]
                    for u in pair]
            norms = [sums[i][i].as_int() if sums[i][i].is_rational else 0 for i in (0, 1)]
            expected = sums[0][1].is_zero and all(sums[i][i] == CyclotomicValue.from_int(norms[i]) for i in (0, 1))
            assert chartab._orthogonal(pair, weights, norms.__getitem__) is expected
            verdicts.append(expected)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)"])
def test_inverse_class_values_are_conjugate(name):
    table = catalog.load_group_table(name)
    ct = _ct(name)
    for i in range(len(ct.rows)):
        for cid in range(ct.num_classes):
            assert ct.rows[i][table.inverse_class(cid)] == ct.rows[i][cid].conjugate()


class TestKnownIrrationalities:
    def test_golden_entries_on_a5(self):
        ct = _ct("A5")
        c5a, c5b = 1, 2
        for row in (1, 2):  # the two degree-3 characters
            v, w = ct.rows[row][c5a], ct.rows[row][c5b]
            assert not v.is_rational
            assert sum_of_products([(1, (v,)), (1, (w,))]) == CyclotomicValue.from_int(1)
            assert sum_of_products([(1, (v, w))]) == CyclotomicValue.from_int(-1)
        # and they vanish on the order-3 class
        c3a = 4
        assert ct.rows[1][c3a].is_zero
        assert ct.rows[2][c3a].is_zero

    def test_quadratic_entries_on_psl27(self):
        ct = _ct("PSL(2,7)")
        c7a, c7b = 2, 3
        for row in (1, 2):
            v, w = ct.rows[row][c7a], ct.rows[row][c7b]
            assert not v.is_rational
            assert v.conjugate() == w
            assert sum_of_products([(1, (v,)), (1, (w,))]) == CyclotomicValue.from_int(-1)
            assert sum_of_products([(1, (v, w))]) == CyclotomicValue.from_int(2)

    def test_centralizer_orders(self):
        ct = _ct("A5")
        assert [ct.centralizer_order(c) for c in range(5)] == [60, 5, 5, 4, 3]


class TestClassMultCoefficients:
    def test_identity_cases(self):
        t = catalog.load_group_table("A5")
        classes = t.conjugacy_classes()
        c2a = t.class_by_name("2A")
        # e * y = h has one solution when h lies in the second class
        assert class_mult_coefficient(t, 0, c2a, classes[c2a].representative) == 1
        assert class_mult_coefficient(t, 0, c2a, 0) == 0
        # x * x^-1 = e once per involution
        assert class_mult_coefficient(t, c2a, c2a, 0) == 15

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)"])
    def test_value_does_not_depend_on_representative(self, name):
        t = catalog.load_group_table(name)
        classes = t.conjugacy_classes()
        k = len(classes)
        for c1 in range(k):
            for c2 in range(k):
                for c3 in range(k):
                    vals = {class_mult_coefficient(t, c1, c2, h) for h in classes[c3].members}
                    assert len(vals) == 1


class TestClassTensor:
    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A6"])
    def test_tensor_matches_brute_force_count(self, name):
        t = catalog.load_group_table(name)
        classes = t.conjugacy_classes()
        k = len(classes)
        assert _class_tensor(t) == [
            [[class_mult_coefficient(t, i, j, classes[l].representative) for l in range(k)]
             for j in range(k)]
            for i in range(k)
        ]

    @pytest.mark.parametrize(
        "swap,message",
        [((0, 1), "not the identity"), ((4, 42), "not commutative"), ((4, 39), "miscounts")],
        ids=["identity", "commutative", "triple-count"],
    )
    def test_corrupted_generator_arrays_are_caught(self, swap, message):
        """Two entries of every stored generator array R_g swapped; each swap
        here breaks a different identity of the class algebra.  The classes
        are built first, from the honest arrays, so only the tensor's input is
        corrupted."""
        t = build_group_table(catalog.load_entry("A5").group, name="A5")
        t.conjugacy_classes()
        for g in t.generator_indices:
            images = list(t.right_multiplication(g))
            a, b = swap
            images[a], images[b] = images[b], images[a]
            t._rights[g] = tuple(images)
        with pytest.raises(VerificationInconsistency, match=message):
            _class_tensor(t)
        for _ in range(2):  # a failed build is not kept: each call checks again
            with pytest.raises(VerificationInconsistency, match=message):
                dixon_character_table(t)

    def test_tensor_makes_no_left_multiplication(self, monkeypatch):
        """A fresh table's classes and tensor read only the generator arrays
        kept from its BFS: no pass of the product kernel _products."""
        passes = {"calls": 0}
        products = GroupTable._products

        def counting(self, images, t):
            passes["calls"] += 1
            return products(self, images, t)

        monkeypatch.setattr(GroupTable, "_products", counting)
        t = build_group_table(catalog.load_entry("A7").group, name="A7")
        t.conjugacy_classes()
        _class_tensor(t)
        assert passes["calls"] == 0

    def test_tensor_work_on_a8(self, monkeypatch):
        """A8's tensor makes at most 20 compositions of length |T|, one per
        edge of its word tree, and no pass of the product kernel _products."""
        t = catalog.load_group_table("A8")
        t.conjugacy_classes()
        whole, passes = [], []
        compose, products = chartab.compose_images, GroupTable._products

        def counting_compose(p, q):
            if len(p) == len(t):
                whole.append(p)
            return compose(p, q)

        def counting_products(self, images, x):
            passes.append(x)
            return products(self, images, x)

        monkeypatch.setattr(chartab, "compose_images", counting_compose)
        monkeypatch.setattr(GroupTable, "_products", counting_products)
        _class_tensor(t)
        assert 0 < len(whole) <= 20
        assert passes == []


class TestOneTablePerGroupTable:
    def test_a_second_call_returns_the_same_table(self):
        t = build_group_table(catalog.load_entry("A5").group, name="A5")
        ct = dixon_character_table(t)
        assert dixon_character_table(t) is ct
        assert chartab._CHARACTER_TABLES[t] is ct

    def test_the_shared_table_is_frozen(self):
        ct = dixon_character_table(_c3_table())
        with pytest.raises(dataclasses.FrozenInstanceError):
            ct.rows = ()

    def test_commands_on_one_group_build_one_tensor(self, capsys, monkeypatch):
        """char-search, char-witness and chartab compute on A6 in one process
        read one character table: its class tensor is built once."""
        builds = []
        tensor = chartab._class_tensor
        monkeypatch.setattr(chartab, "_class_tensor", lambda t: builds.append(t) or tensor(t))
        catalog.clear_caches()
        for argv in (["spreading", "char-search"],
                     ["spreading", "char-witness", "--r", "2A", "--s1", "5A", "--s2", "5B"],
                     ["chartab", "compute"]):
            assert cli.main([*argv, "--group", "A6", "--json"]) == 0
        capsys.readouterr()
        assert builds == [catalog.load_group_table("A6")]

    def test_the_table_is_dropped_with_its_group_table(self, monkeypatch):
        """The memo holds no strong reference: once the catalog forgets a
        table, the table and its character table go.  The test reads an empty
        memo of the module's own kind."""
        memo = type(chartab._CHARACTER_TABLES)()
        monkeypatch.setattr(chartab, "_CHARACTER_TABLES", memo)
        catalog.clear_caches()
        dixon_character_table(catalog.load_group_table("A5"))
        table = weakref.ref(catalog.load_group_table("A5"))
        assert list(memo) == [table()]
        catalog.clear_caches()
        gc.collect()
        assert table() is None
        assert len(memo) == 0

    def test_a_table_past_the_class_cap_is_refused_on_every_call(self):
        """C2^6 has 64 classes, past the cap of 60; the refusal is not kept."""
        gens = [Permutation([*range(2 * i), 2 * i + 1, 2 * i, *range(2 * i + 2, 12)]) for i in range(6)]
        t = build_group_table(PermutationGroup(gens), name="C2^6")
        for _ in range(2):
            with pytest.raises(CapExceeded) as raised:
                dixon_character_table(t)
            assert (raised.value.what, raised.value.cap) == ("conjugacy classes", 60)
        assert t not in chartab._CHARACTER_TABLES


class TestClassAlgebraConsistency:
    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "PSL(3,2)", "A6"])
    def test_exhaustive_small_groups(self, name):
        t = catalog.load_group_table(name)
        ct = _ct(name)
        k = ct.num_classes
        triples = [(a, b, c) for a in range(k) for b in range(k) for c in range(k)]
        assert class_algebra_consistent(t, ct, triples)

    @pytest.mark.parametrize("name", ["PSL(2,8)", "PSL(2,11)"])
    def test_sampled_larger_groups(self, name):
        t = catalog.load_group_table(name)
        ct = _ct(name)
        k = ct.num_classes
        rng = random.Random(11)
        triples = [tuple(rng.randrange(k) for _ in range(3)) for _ in range(40)]
        assert class_algebra_consistent(t, ct, triples)


class TestClassOrbitPartition:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("A5", ((0,), (1, 2), (3,), (4,))),
            ("A6", ((0,), (1, 2), (3,), (4, 5), (6,))),
            ("PSL(2,8)", ((0,), (1,), (2, 3, 4), (5,), (6, 7, 8))),
            ("PSL(2,11)", ((0,), (1,), (2, 3), (4,), (5,), (6,), (7,))),
        ],
    )
    def test_fused_classes(self, name, expected):
        t = catalog.load_group_table(name)
        auts = catalog.load_automorphisms(name)
        assert class_orbit_partition(t, auts) == expected


class TestTripleCheck:
    def test_requires_distinct_classes(self):
        t = catalog.load_group_table("A5")
        ct = _ct("A5")
        part = class_orbit_partition(t, catalog.load_automorphisms("A5"))
        with pytest.raises(ValueError):
            character_triple_check(t, ct, part, 4, 1, 1)

    def test_size_mismatch(self):
        t = catalog.load_group_table("A5")
        ct = _ct("A5")
        part = class_orbit_partition(t, catalog.load_automorphisms("A5"))
        out = character_triple_check(t, ct, part, 4, 1, 3)  # 5A vs 2A
        assert isinstance(out, CharTripleRefutation)
        assert out.violation == "class-size-mismatch"
        assert out.detail == {"s1_size": 12, "s2_size": 15}

    def test_non_vanishing_character(self):
        t = catalog.load_group_table("A5")
        ct = _ct("A5")
        part = class_orbit_partition(t, catalog.load_automorphisms("A5"))
        out = character_triple_check(t, ct, part, 3, 1, 2)  # r = 2A
        assert isinstance(out, CharTripleRefutation)
        assert out.violation == "character-not-vanishing"
        assert out.detail == {"character_index": 1, "class": "2A", "value": "-1"}
        # recheck: that character really is nonzero there
        assert not ct.rows[1][3].is_zero


SEARCH_EXPECTATIONS = {
    "A5": [("3A", "5A", "5B")],
    "PSL(2,7)": [("3A", "7A", "7B")],
    "PSL(3,2)": [("3A", "7A", "7B")],
    "A6": [("2A", "5A", "5B"), ("5A", "3A", "3B"), ("5B", "3A", "3B"), ("4A", "5A", "5B")],
    "PSL(2,11)": [
        ("2A", "5A", "5B"),
        ("3A", "5A", "5B"),
        ("6A", "5A", "5B"),
        ("5A", "11A", "11B"),
        ("5A", "3A", "6A"),
        ("5B", "11A", "11B"),
        ("5B", "3A", "6A"),
    ],
}


@pytest.mark.parametrize("name", sorted(SEARCH_EXPECTATIONS))
def test_search_results(name):
    t = catalog.load_group_table(name)
    ct = _ct(name)
    part = class_orbit_partition(t, catalog.load_automorphisms(name))
    found = character_triple_search(t, ct, part)
    assert _named(t, found) == SEARCH_EXPECTATIONS[name]
    for spec in found:
        r, s1, s2 = spec.r_class, spec.s1_class, spec.s2_class
        assert ct.class_sizes[s1] == ct.class_sizes[s2]
        orbit = next(block for block in part if r in block)
        assert all(row[c].is_zero for row in ct.rows if row[s1] != row[s2] for c in orbit)


def test_search_psl28_families():
    t = catalog.load_group_table("PSL(2,8)")
    ct = _ct("PSL(2,8)")
    part = class_orbit_partition(t, catalog.load_automorphisms("PSL(2,8)"))
    found = _named(t, character_triple_search(t, ct, part))
    assert len(found) == 30
    order9 = ["3A", "9A", "9B", "9C"]
    order7 = ["7A", "7B", "7C"]
    pairs7 = [(a, b) for i, a in enumerate(order7) for b in order7[i + 1:]]
    pairs9 = [(a, b) for i, a in enumerate(order9) for b in order9[i + 1:]]
    expected = {(r, s1, s2) for r in order9 for s1, s2 in pairs7}
    expected |= {(r, s1, s2) for r in order7 for s1, s2 in pairs9}
    assert set(found) == expected


BASE_GROUPS = [name for name in catalog.catalog_names() if not name.endswith("_3sets")]
BASE_TRIPLE_COUNTS = {"A5": 1, "A6": 4, "A7": 2, "A8": 15, "A9": 11, "M11": 9, "M12": 11, "PSL(2,11)": 7,
                      "PSL(2,13)": 15, "PSL(2,7)": 1, "PSL(2,8)": 30, "PSL(3,2)": 1}


@lru_cache(maxsize=None)
def _partition(name):
    return class_orbit_partition(catalog.load_group_table(name), catalog.load_automorphisms(name))


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_search_lists_exactly_the_triples_the_check_passes(name):
    """Over every triple of distinct r and s1 < s2, non-witnesses included,
    the search returns the ones character_triple_check passes, in order."""
    t, ct, part = catalog.load_group_table(name), _ct(name), _partition(name)
    k = ct.num_classes
    checked = [character_triple_check(t, ct, part, r, s1, s2)
               for r in range(k) for s1 in range(k) for s2 in range(s1 + 1, k) if r not in (s1, s2)]
    found = character_triple_search(t, ct, part)
    assert found == [c for c in checked if isinstance(c, CharWitnessSpec)]
    assert len(found) == BASE_TRIPLE_COUNTS[name]


class TestCheckCost:
    def test_search_compares_each_equal_size_pair_once(self, monkeypatch):
        """Over the 12 base tables the search makes 400 value comparisons: one
        per character for each of the 38 pairs of equal-size classes, not one
        per r as well (3,858)."""
        inputs = [(catalog.load_group_table(name), _ct(name), _partition(name)) for name in BASE_GROUPS]
        pairs = [(ct, a, b) for _, ct, _ in inputs for a in range(ct.num_classes)
                 for b in range(a + 1, ct.num_classes) if ct.class_sizes[a] == ct.class_sizes[b]]
        compared = []
        eq = CyclotomicValue.__eq__
        monkeypatch.setattr(CyclotomicValue, "__eq__", lambda v, w: compared.append(v) or eq(v, w))
        for t, ct, part in inputs:
            character_triple_search(t, ct, part)
        assert len(pairs) == 38
        assert len(compared) == sum(ct.num_classes for ct, _, _ in pairs) == 400

    def test_orthogonality_reduces_only_pairs_with_an_irrational_entry(self, monkeypatch):
        """Both checks over the 12 base tables take 1,414 pairs i <= j.  The
        796 with no irrational entry are decided by their integer sums; each
        of the other 618 makes one reduction modulo Phi_n."""
        cts = [_ct(name) for name in BASE_GROUPS]
        reductions = []
        reduce = chartab._reduce
        monkeypatch.setattr(chartab, "_reduce", lambda coeffs, n: reductions.append(n) or reduce(coeffs, n))
        for ct in cts:
            assert row_orthogonality_holds(ct) and column_orthogonality_holds(ct)
        assert sum(ct.num_classes * (ct.num_classes + 1) for ct in cts) == 1414
        assert len(reductions) == 618


def test_search_finds_nothing_without_fusion_data():
    # scaffolding case: all-singleton partition on a tiny cyclic group
    t = _c3_table()
    ct = dixon_character_table(t)
    assert character_triple_search(t, ct, ((0,), (1,), (2,))) == []


VALIDATION_CONSTANTS = {
    "A5": [20],
    "PSL(2,7)": [56],
    "A6": [45, 72, 72, 90],
}


@pytest.mark.parametrize("name", sorted(VALIDATION_CONSTANTS))
def test_search_triples_validate_on_the_two_sided_action(name):
    t = catalog.load_group_table(name)
    auts = catalog.load_automorphisms(name)
    ct = _ct(name)
    part = class_orbit_partition(t, auts)
    diag = DiagonalGroup(t, auts)
    found = character_triple_search(t, ct, part)
    constants = []
    for spec in found:
        w = validate_character_witness(diag, spec)
        assert w.multiset.cardinality == len(t)
        assert len(w.points) == w.constant
        constants.append(w.constant)
        recheck_witness(w)
    assert constants == VALIDATION_CONSTANTS[name]


def test_forced_failing_triple_is_not_built():
    """A5 (2A, 5A, 5B) fails the character test; forced through the builder,
    its multiset is refuted on diag(A5) and the builder raises."""
    t = catalog.load_group_table("A5")
    auts = catalog.load_automorphisms("A5")
    ids = [t.class_by_name(n) for n in ("2A", "5A", "5B")]
    refutation = character_triple_check(t, _ct("A5"), class_orbit_partition(t, auts), *ids)
    assert refutation.violation == "character-not-vanishing"
    with pytest.raises(VerificationInconsistency, match="non-constant"):
        validate_character_witness(DiagonalGroup(t, auts), CharWitnessSpec(*ids))


def test_table_serialization():
    ct = _ct("A5")
    data = ct.to_json()
    assert data["group"] == "A5"
    assert data["order"] == 60
    assert data["prime"] == 31
    assert [c["name"] for c in data["classes"]] == list(ct.class_names)
    assert data["degrees"] == [1, 3, 3, 4, 5]
    assert data["rows"][0] == [1, 1, 1, 1, 1]
    text = ct.to_text()
    assert "5A" in text and "X.3" in text

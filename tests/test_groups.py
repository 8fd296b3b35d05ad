"""Multiplication tables, automorphism bookkeeping, and the two-sided action."""

import random
import struct
from collections import Counter

import pytest

from helpers import (
    classes_by_orbit_walk,
    compose,
    coset_action,
    conjugate_subgroup,
    extend_images,
    fixed_point_average,
    group_contains,
    identity,
    inner_automorphism,
    inner_witness,
    inverse_automorphism,
    is_automorphism,
    perm_product,
    product_set,
    product_size,
    retained_bytes,
    right_cosets,
    scan_normalizer,
    scan_setwise_stabilizer,
    sylow_normalizer,
)
from spreadcheck import autos, catalog, tables
from spreadcheck.autos import (
    Automorphism,
    automorphism_from_generator_images,
    automorphism_group_from_supplied,
    center,
    identity_automorphism,
    search_automorphism_group,
)
from spreadcheck import diagonal
from spreadcheck.chartab import class_orbit_partition, dixon_character_table
from spreadcheck.diagonal import (
    DiagonalGroup,
    diagonal_order,
    inversion_map,
    left_translation,
    right_translation,
)
from spreadcheck.errors import CapExceeded, InvalidSubgroup, VerificationInconsistency
from spreadcheck.perm import Permutation, PermutationGroup, compose_images
from spreadcheck.tables import (
    build_group_table,
    cauchy_frobenius_count,
    centralizer,
    close_subgroup,
    coset_space,
    derived_subgroup,
    normalizer,
    orbits_on_cosets,
    setwise_stabilizer,
    sylow_subgroup,
    validate_subgroup,
)


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, list(cycles))


def _a4_table():
    return build_group_table(PermutationGroup([cyc(4, [0, 1, 2]), cyc(4, [1, 2, 3])]), name="A4")


def _c6_table():
    return build_group_table(PermutationGroup([Permutation((1, 2, 3, 4, 5, 0))]), name="C6")


def _s3_table():
    return build_group_table(PermutationGroup([cyc(3, [0, 1, 2]), cyc(3, [0, 1])]), name="S3")


class TestGroupTable:
    def test_index_roundtrip_and_inverses(self):
        t = _a4_table()
        assert len(t) == 12
        for i, p in enumerate(t.elements):
            assert t.index[bytes(p.images)] == i
            assert t.multiply(i, t.inverse[i]) == 0

    def test_associativity_exhaustive_small(self):
        for t in (_c6_table(), _a4_table()):
            n = len(t)
            for i in range(n):
                for j in range(n):
                    ij = t.multiply(i, j)
                    for k in range(n):
                        assert t.multiply(ij, k) == t.multiply(i, t.multiply(j, k))

    def test_associativity_sampled_a5(self):
        t = catalog.load_group_table("A5")
        rng = random.Random(7)
        for _ in range(20_000):
            i, j, k = (rng.randrange(60) for _ in range(3))
            assert t.multiply(t.multiply(i, j), k) == t.multiply(i, t.multiply(j, k))

    def test_element_orders_and_exponent(self):
        # orders are computed once per class; every element must still match
        for name, exponent in (("A5", 30), ("PSL(2,7)", 84), ("M11", 1320)):
            t = catalog.load_group_table(name)
            for i, p in enumerate(t.elements):
                assert t.element_order(i) == p.order()
            assert t.exponent() == exponent

    def test_conjugate_and_commutator(self):
        t = _s3_table()
        for x in range(6):
            for s in range(6):
                expect = t.multiply(t.multiply(t.inverse[s], x), s)
                assert t.conjugate(x, s) == expect
        # [a, b] = 1 exactly when a and b commute
        for a in range(6):
            for b in range(6):
                commute = t.multiply(a, b) == t.multiply(b, a)
                assert (t.commutator(a, b) == 0) == commute

    def test_conjugacy_class_sizes_sorted(self):
        assert [c.size for c in _s3_table().conjugacy_classes()] == [1, 2, 3]
        assert [c.size for c in _a4_table().conjugacy_classes()] == [1, 3, 4, 4]

    def test_class_data_a5(self):
        t = catalog.load_group_table("A5")
        assert [c.size for c in t.conjugacy_classes()] == [1, 12, 12, 15, 20]
        assert t.class_names() == ["1A", "5A", "5B", "2A", "3A"]
        for name in t.class_names():
            cid = t.class_by_name(name)
            assert t.class_names()[cid] == name
        with pytest.raises(ValueError):
            t.class_by_name("9Z")

    def test_class_data_psl27(self):
        t = catalog.load_group_table("PSL(2,7)")
        assert [c.size for c in t.conjugacy_classes()] == [1, 21, 24, 24, 42, 56]
        assert t.class_names() == ["1A", "2A", "7A", "7B", "4A", "3A"]

    def test_class_of_partitions_the_group(self):
        t = catalog.load_group_table("A5")
        classes = t.conjugacy_classes()
        for cid, cls in enumerate(classes):
            for x in cls.members:
                assert t.class_of(x) == cid
        assert sum(c.size for c in classes) == 60

    def test_more_than_256_classes_keep_class_ids_in_a_list(self):
        """C4 x C3 x C25 has 300 classes, too many for one byte per class id:
        the table keeps a list and answers as the byte form does, and the
        Dixon table stops at its class cap."""
        t = build_group_table(PermutationGroup(
            [cyc(32, [0, 1, 2, 3]), cyc(32, [4, 5, 6]), cyc(32, list(range(7, 32)))]
        ))
        classes = t.conjugacy_classes()
        assert len(classes) == 300 and type(t._class_of) is list
        assert sorted(m for cls in classes for m in cls.members) == list(range(300))
        for cid, cls in enumerate(classes):
            assert [t.class_of(m) for m in cls.members] == [cid]
        c4, c3 = close_subgroup(t, [t.generator_indices[0]]), close_subgroup(t, [t.generator_indices[1]])
        # an abelian S has |T| / |S H| orbits on the cosets of H
        assert cauchy_frobenius_count(t, c4, c3) == fixed_point_average(t, c4, c3) == 25
        assert cauchy_frobenius_count(t, c3, range(300)) == 1
        with pytest.raises(CapExceeded) as raised:
            dixon_character_table(t)
        assert (raised.value.what, raised.value.cap) == ("conjugacy classes", 60)

    def test_power_and_inverse_classes(self):
        t = catalog.load_group_table("A5")
        c5a, c5b = t.class_by_name("5A"), t.class_by_name("5B")
        # all five classes of A5 are closed under inversion
        for cid in range(5):
            assert t.inverse_class(cid) == cid
        # squaring swaps the two order-5 classes
        assert t.power_class(c5a, 2) == c5b
        assert t.power_class(c5b, 2) == c5a
        assert t.power_class(c5a, 4) == c5a

        t7 = catalog.load_group_table("PSL(2,7)")
        c7a, c7b = t7.class_by_name("7A"), t7.class_by_name("7B")
        assert t7.inverse_class(c7a) == c7b
        assert t7.inverse_class(c7b) == c7a
        # 2 is a square mod 7, 3 is not
        assert t7.power_class(c7a, 2) == c7a
        assert t7.power_class(c7a, 3) == c7b

    def test_generating_pair(self):
        t = catalog.load_group_table("A5")
        x, y = t.generating_pair()
        assert close_subgroup(t, [x, y]) == frozenset(range(60))

    def test_build_caps_and_order_check(self):
        a5 = PermutationGroup([cyc(5, [0, 1, 2, 3, 4]), cyc(5, [0, 1, 2])])
        with pytest.raises(CapExceeded):
            build_group_table(a5, cap=30)
        with pytest.raises(VerificationInconsistency):
            build_group_table(a5, known_order=59)
        assert len(build_group_table(a5, known_order=60)) == 60


class TestSubgroupHelpers:
    def test_close_and_validate(self):
        t = catalog.load_group_table("A5")
        five = next(i for i in range(60) if t.element_order(i) == 5)
        sub = close_subgroup(t, [five])
        assert len(sub) == 5
        assert validate_subgroup(t, frozenset(sub)) == sub
        three = next(i for i in range(60) if t.element_order(i) == 3)
        with pytest.raises(InvalidSubgroup):
            validate_subgroup(t, {0, three})

    def test_validate_rejects_non_subgroups(self):
        t = catalog.load_group_table("A5")
        c5 = catalog.resolve_subgroup("A5", "C5")
        with pytest.raises(InvalidSubgroup, match="identity"):
            validate_subgroup(t, c5 - {0})
        five = min(c5 - {0})
        three = next(i for i in range(60) if t.element_order(i) == 3)
        # closure of {1, x, y} is all of A5, far larger than the set
        with pytest.raises(InvalidSubgroup):
            validate_subgroup(t, {0, five, three})
        # the right size, but not closed
        with pytest.raises(InvalidSubgroup):
            validate_subgroup(t, (c5 - {max(c5)}) | {three})

    def test_a_subgroup_passes_its_own_table_unchecked(self, monkeypatch):
        entry = catalog.load_entry("A7")
        stab3 = entry.subgroup("stab3")
        twin = build_group_table(PermutationGroup(entry.generators), known_order=entry.known_order)
        products = {entry.table: 0, twin: 0}  # the elements each table multiplies
        for t in products:
            def counting(images, g, t=t, multiply=t._products):
                images = list(images)
                products[t] += len(images)
                return multiply(images, g)

            monkeypatch.setattr(t, "_products", counting)
        assert validate_subgroup(entry.table, stab3) is stab3
        assert products[entry.table] == 0
        # the same indices in a separately built table are closed again
        again = validate_subgroup(twin, stab3)
        assert again == stab3 and again.table is twin and again.gens == stab3.gens
        assert products[twin] > 0

    def test_closure_cap(self):
        t = catalog.load_group_table("A5")
        c5 = catalog.resolve_subgroup("A5", "C5")
        assert close_subgroup(t, c5, cap=5) == c5
        with pytest.raises(CapExceeded):
            close_subgroup(t, [min(c5 - {0})], cap=4)

    @pytest.mark.parametrize(
        "group,label,gens",
        [("A5", "A4", (8, 10)), ("A7", "stab3", (1, 293, 299, 433)), ("M11", "M10", (2, 36))],
    )
    def test_generating_set_is_greedy_and_pinned(self, group, label, gens):
        t = catalog.load_group_table(group)
        sub = catalog.resolve_subgroup(group, label)
        assert sub.gens == gens
        assert validate_subgroup(t, frozenset(sub)).gens == gens
        # each kept member lies outside the span of the members kept before it
        for k, g in enumerate(gens):
            assert g not in close_subgroup(t, gens[:k])
        assert close_subgroup(t, gens) == sub

    def test_validation_cost_is_linear_in_the_subgroup(self, monkeypatch):
        t = catalog.load_group_table("A7")
        stab3 = catalog.resolve_subgroup("A7", "stab3")
        k = len(stab3.gens)
        products = 0
        multiply = t._products

        def counting(images, g):
            nonlocal products
            images = list(images)
            products += len(images)
            return multiply(images, g)

        monkeypatch.setattr(t, "_products", counting)
        assert validate_subgroup(t, frozenset(stab3)) == stab3
        assert 0 < products <= len(stab3) * (k + 1)

    def test_generating_set_regenerates(self):
        t = catalog.load_group_table("A5")
        a4 = catalog.resolve_subgroup("A5", "A4")
        assert close_subgroup(t, a4.gens) == a4

    def test_conjugate_subgroup(self):
        t = catalog.load_group_table("A5")
        c5 = catalog.resolve_subgroup("A5", "C5")
        for s in (1, 17, 42):
            image = conjugate_subgroup(t, c5, s)
            assert len(image) == 5
            assert validate_subgroup(t, image) == image

    def test_derived_subgroups(self):
        t = catalog.load_group_table("A5")
        assert derived_subgroup(t, frozenset(range(60))) == frozenset(range(60))
        a4 = catalog.resolve_subgroup("A5", "A4")
        v4 = derived_subgroup(t, a4)
        assert len(v4) == 4
        assert v4 == catalog.resolve_subgroup("A5", "V4")

    def test_centralizer_and_normalizer(self):
        t = catalog.load_group_table("A5")
        five = next(i for i in range(60) if t.element_order(i) == 5)
        c5 = close_subgroup(t, [five])
        assert centralizer(t, five) == c5
        d10 = normalizer(t, c5)
        assert len(d10) == 10

    @pytest.mark.parametrize("name", ["A5", "A6", "A7", "A8", "PSL(2,7)", "PSL(2,8)", "PSL(2,11)",
                                      "PSL(2,13)", "PSL(3,2)", "M11"])
    def test_normalizer_matches_the_scan(self, monkeypatch, name):
        """The orbit-stabiliser normalizer equals the scan of T on every
        catalog subgroup and every Sylow subgroup, and reads no index range."""
        entry = catalog.load_entry(name)
        t = entry.table
        subgroups = [entry.subgroup(label) for label in entry.subgroups]
        subgroups += [sylow_subgroup(t, p) for p in (2, 3, 5, 7, 11, 13) if len(t) % p == 0]
        expected = [scan_normalizer(t, h) for h in subgroups]
        monkeypatch.setattr(tables, "range", _no_scan(len(t)), raising=False)
        assert [normalizer(t, h) for h in subgroups] == expected

    def test_stabilizers(self):
        t = catalog.load_group_table("A5")
        assert len(setwise_stabilizer(t, (0,))) == 12
        assert len(setwise_stabilizer(t, (0, 1))) == 6

    @pytest.mark.parametrize("name,points", [("A5", ()), ("A5", (0, 1)), ("A7", (0, 1, 2)),
                                             ("A8", (0, 1, 2)), ("A8", (0, 2, 3, 5)),
                                             ("PSL(2,7)", (0, 7)), ("M11", (0,)), ("M11", (3, 4))])
    def test_stabilizers_match_the_scan(self, monkeypatch, name, points):
        """Orbit-stabiliser gives the stabilizers the scan of T gives, as plain
        frozensets, and reads no index range."""
        t = catalog.load_group_table(name)
        expected = scan_setwise_stabilizer(t, points)
        monkeypatch.setattr(tables, "range", _no_scan(len(t)), raising=False)
        found = setwise_stabilizer(t, points)
        assert type(found) is frozenset and found == expected

    def test_sylow(self):
        t = catalog.load_group_table("A5")
        assert len(sylow_subgroup(t, 2)) == 4
        assert len(sylow_subgroup(t, 5)) == 5
        assert len(sylow_normalizer(t, 5)) == 10
        t6 = catalog.load_group_table("A6")
        assert len(sylow_subgroup(t6, 3)) == 9
        assert len(sylow_normalizer(t6, 3)) == 36

    def test_products(self):
        t = catalog.load_group_table("A5")
        a4 = catalog.resolve_subgroup("A5", "A4")
        c5 = catalog.resolve_subgroup("A5", "C5")
        assert product_size(t, a4, c5) == 60
        v4 = catalog.resolve_subgroup("A5", "V4")
        assert product_set(t, v4, a4) == a4

    def test_coset_space_and_counts(self):
        t = catalog.load_group_table("A5")
        a4 = catalog.resolve_subgroup("A5", "A4")
        space = coset_space(t, a4)
        assert len(space) == 5
        _, induced = coset_action(t, a4)
        assert induced.order() == 60
        assert induced.is_transitive()
        v4 = catalog.resolve_subgroup("A5", "V4")
        for sub, count in ((a4, 2), (v4, 2)):
            assert len(orbits_on_cosets(space, sub)) == count
            assert cauchy_frobenius_count(t, a4, sub) == count

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A7", "M11"])
    def test_coset_space_matches_the_product_sets(self, name):
        """Each coset id holds exactly one set {h s}, and its representative."""
        entry = catalog.load_entry(name)
        for label in sorted(entry.subgroups):
            h = entry.subgroup(label)
            space = coset_space(entry.table, h)
            members = [set() for _ in space.representatives]
            for x, cid in enumerate(space.point_of):
                members[cid].add(x)
            assert all(rep in coset for rep, coset in zip(space.representatives, members))
            assert sorted(map(sorted, members)) == sorted(map(sorted, right_cosets(entry.table, h)))

    def test_cosets_and_class_counts_are_read_without_products(self, monkeypatch):
        """A coset is gathered from its parent through the stored R_g, and the
        class counts from one gather of class ids: no _products, no class_of."""
        t = catalog.load_group_table("M12")
        a, b = catalog.resolve_subgroup("M12", "2xS5"), catalog.resolve_subgroup("M12", "S5")
        calls = Counter()

        def counting(method):
            original = getattr(tables.GroupTable, method)

            def counted(self, *args):
                calls[method] += 1
                return original(self, *args)
            return counted

        for method in ("_products", "class_of"):
            monkeypatch.setattr(tables.GroupTable, method, counting(method))
        assert len(coset_space(t, a)) == 396
        assert calls["_products"] == 0
        assert cauchy_frobenius_count(t, a, b) == 10
        assert calls["class_of"] == 0


AUT_ORDERS = {
    "A5": (120, 2),
    "A6": (1440, 4),
    "A7": (5040, 2),
    "A8": (40320, 2),
    "A9": (362880, 2),
    "PSL(2,7)": (336, 2),
    "PSL(3,2)": (336, 2),
    "PSL(2,8)": (1512, 3),
    "PSL(2,11)": (1320, 2),
    "PSL(2,13)": (2184, 2),
    "M11": (7920, 1),
    "M12": (190080, 2),
}


class TestAutomorphisms:
    def test_center(self):
        assert center(_s3_table()) == frozenset({0})
        c3 = build_group_table(PermutationGroup([cyc(3, [0, 1, 2])]), name="C3")
        assert center(c3) == frozenset(range(3))

    def test_inner_automorphisms(self):
        t = catalog.load_group_table("A5")
        assert identity_automorphism(t).is_identity
        aut = inner_automorphism(t, 7)
        assert is_automorphism(t, aut.mapping)
        for x in (0, 3, 31):
            assert aut.mapping[x] == t.conjugate(x, 7)
        # trivial center makes the conjugating element unique
        assert inner_witness(t, aut) == 7

    def test_is_automorphism_rejects_non_homomorphism(self):
        t = catalog.load_group_table("A5")
        mapping = list(range(60))
        mapping[0], mapping[1] = mapping[1], mapping[0]
        assert not is_automorphism(t, mapping)

    def test_generator_images(self):
        t = catalog.load_group_table("A5")
        gens = close_subgroup(t, range(60)).gens[:2]
        aut = automorphism_from_generator_images(t, [t.conjugate(g, 11) for g in gens])
        assert aut.mapping == inner_automorphism(t, 11).mapping
        with pytest.raises(ValueError):
            automorphism_from_generator_images(t, [0, 0])  # a homomorphism, not bijective
        # no homomorphism sends both generators to one element of order > 1, so
        # an edge fails; one generator's walk misses most of T
        rights = [t.right_multiplication(g) for g in gens]
        assert autos._cayley_walk(t, rights, [gens[0], gens[0]]) is None
        assert -1 in autos._cayley_walk(t, rights[:1], gens[:1])
        # the trivial map passes every edge, but its kernel is all of T
        assert autos._cayley_walk(t, rights, [0, 0]) == [0] * 60
        assert extend_images(t, rights, [0, 0]) is None

    def test_search_requires_trivial_center(self):
        c3 = build_group_table(PermutationGroup([cyc(3, [0, 1, 2])]), name="C3")
        with pytest.raises(ValueError):
            search_automorphism_group(c3)

    def test_supplied_route_requires_trivial_center(self):
        c3 = build_group_table(PermutationGroup([cyc(3, [0, 1, 2])]), name="C3")
        with pytest.raises(ValueError):
            automorphism_group_from_supplied(c3, [])

    def test_both_routes_honour_the_cap(self, monkeypatch):
        supplied_entry = catalog.load_entry.__wrapped__("A7")
        searched_entry = catalog.load_entry.__wrapped__("PSL(2,13)")
        assert supplied_entry.aut_images is not None and searched_entry.aut_images is None
        monkeypatch.setattr(autos, "DEFAULT_AUT_CAP", 1)
        for entry in (supplied_entry, searched_entry):
            with pytest.raises(CapExceeded):
                entry.automorphisms

    @pytest.mark.parametrize("name,bound", [("A8", 3), ("PSL(2,13)", 5), ("M11", 3)])
    def test_loading_automorphisms_scans_t_only_to_extend_images(self, monkeypatch, name, bound):
        """Once the classes are built, the supplied route (A8) and the search
        (PSL(2,13), M11) stay within bound*|T| products: the coset bookkeeping
        stores nothing of size |T| and finds centralizers from the class walk,
        each automorphism is checked once by a stabilizer chain of its graph
        on T x T and read at single points by sifting through it, and a search
        candidate is first walked over at most 256 vertices of the Cayley
        graph, reading x g from right multiplication arrays, so one that is
        no automorphism (all 11 of M11's) stops at its first failing edge."""
        entry = catalog.load_entry.__wrapped__(name)
        t = entry.table
        t.conjugacy_classes()
        counter = _count_products(monkeypatch, t)
        assert entry.automorphisms.order == AUT_ORDERS[name][0]
        assert counter["calls"] <= bound * len(t)

    @pytest.mark.parametrize("name", ["A7", "A8"])
    def test_class_walk_makes_no_product(self, monkeypatch, name):
        """The class split reads conjugation arrays built from the kernels."""
        t = catalog.load_entry.__wrapped__(name).table
        counter = _count_products(monkeypatch, t)
        assert len(t.conjugacy_classes()) == {"A7": 9, "A8": 14}[name]
        assert counter["calls"] == 0

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "M11"])
    def test_as_automorphism_accepts_automorphisms(self, name):
        t, auts = catalog.load_group_table(name), catalog.load_automorphisms(name)
        gens = tuple(t.generator_indices)
        rights = [t.right_multiplication(g) for g in gens]
        for rep in auts.coset_representatives:
            assert autos.is_automorphism(t, rights, rep.mapping)
            # the same images of the table generators, read off or sifted
            phi = Automorphism(t, gens, compose_images(gens, rep.mapping))
            assert list(map(phi, gens)) == list(map(rep, gens))
            # followed by inversion, an anti-automorphism of a nonabelian T
            assert not autos.is_automorphism(t, rights, compose_images(rep.mapping, t.inverse))
        inner = inner_automorphism(t, len(t) // 2)
        assert autos.is_automorphism(t, rights, inner.mapping)
        assert list(map(inner, gens)) != list(map(auts.coset_representatives[0], gens))

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)"])
    def test_as_automorphism_rejects_non_automorphisms(self, name):
        t = catalog.load_group_table(name)
        rights = [t.right_multiplication(g) for g in t.generator_indices]
        swapped = list(range(len(t)))
        swapped[3], swapped[7] = swapped[7], swapped[3]
        assert not autos.is_automorphism(t, rights, tuple(swapped))
        # inversion is a bijective anti-automorphism of a nonabelian T: only
        # the commuting check with the right multiplications can reject it
        assert sorted(t.inverse) == list(range(len(t)))
        assert not autos.is_automorphism(t, rights, tuple(t.inverse))
        assert not autos.is_automorphism(t, rights, tuple(range(len(t) - 1)))
        assert not autos.is_automorphism(t, rights, tuple(range(1, len(t) + 1)))
        assert not autos.is_automorphism(t, rights, tuple(range(-1, len(t) - 1)))
        # the trivial map passes every array identity, as sigma R_g = sigma =
        # R_1 sigma: only its kernel rejects it
        trivial = (0,) * len(t)
        assert all(compose_images(r, trivial) == trivial for r in rights)
        assert not autos.is_automorphism(t, rights, trivial)

    @pytest.mark.parametrize("name,kept,refused", [("A5", 1, 0), ("PSL(2,8)", 2, 0), ("M11", 0, 11)])
    def test_graph_check_agrees_with_the_walk_on_search_candidates(self, monkeypatch, name, kept, refused):
        """Each candidate pair that the search screens gets one verdict from
        the full Cayley walk and from the check on T x T."""
        t = catalog.load_entry.__wrapped__(name).table
        a, b = t.generating_pair()
        verdicts = []
        walk = autos._cayley_walk

        def both(table, rights, images, limit):
            verdicts.append((extend_images(table, rights, images) is not None,
                             autos._graph_automorphism(table, (a, b), images) is not None))
            return walk(table, rights, images, limit)

        monkeypatch.setattr(autos, "_cayley_walk", both)
        search_automorphism_group(t)
        assert all(walked == checked for walked, checked in verdicts)
        assert Counter(walked for walked, _ in verdicts) == Counter({True: kept, False: refused})

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "M11"])
    def test_graph_check_refuses_non_automorphisms(self, name):
        t = catalog.load_group_table(name)
        g, h = t.generator_indices
        rights = [t.right_multiplication(x) for x in (g, h)]

        def generates(images):
            return PermutationGroup([t.elements[y] for y in images], t.group.degree).order() == len(t)

        # swapped images generate T, but g and h differ in order
        assert t.element_order(g) != t.element_order(h) and generates((h, g))
        assert autos._graph_automorphism(t, (g, h), (h, g)) is None
        # a non-homomorphism whose images generate T: its graph is larger than T
        images = (g, t.multiply(h, g))
        assert generates(images) and extend_images(t, rights, images) is None
        assert Automorphism(t, (g, h), images)._graph_chain.order() > len(t)
        assert autos._graph_automorphism(t, (g, h), images) is None
        with pytest.raises(ValueError, match="do not define an automorphism"):
            automorphism_from_generator_images(t, images)

    def test_graph_check_refuses_images_generating_a_proper_subgroup(self):
        """The sign map of S3 onto <(0 1)> is a homomorphism, so its graph
        has order |S3|, but its images generate a proper subgroup."""
        t = _s3_table()
        g, h = t.generator_indices  # a 3-cycle and a transposition
        sign = (0, h)
        assert Automorphism(t, (g, h), sign)._graph_chain.order() == len(t)
        assert autos._graph_automorphism(t, (g, h), sign) is None
        assert autos._graph_automorphism(t, (g, h), (0, 0)) is None
        with pytest.raises(ValueError, match="do not define an automorphism"):
            automorphism_from_generator_images(t, sign)
        assert autos._graph_automorphism(t, (g, h), (g, t.conjugate(h, g))) is not None

    @pytest.mark.parametrize("name", sorted(AUT_ORDERS))
    def test_sifted_images_equal_the_walked_mapping(self, name):
        """Every supplied and searched coset representative passes both the
        check on T x T and the full Cayley walk of its generator images, and
        phi sifted through its graph's chain agrees with that walk: at every
        element of A5, PSL(2,7), A7 and M11, with an inner automorphism too,
        and at every class representative of the other base groups."""
        t, auts = catalog.load_group_table(name), catalog.load_automorphisms(name)
        phis = list(auts.coset_representatives)
        if name in ("A5", "PSL(2,7)", "A7", "M11"):
            points = range(len(t))
            phis.append(inner_automorphism(t, len(t) // 2))
        else:
            points = [c.representative for c in t.conjugacy_classes()]
        for phi in phis:
            assert autos._graph_automorphism(t, phi.gens, phi.images) is not None
            walked = extend_images(t, [t.right_multiplication(g) for g in phi.gens], phi.images)
            assert walked is not None
            assert [phi(x) for x in points] == [walked[x] for x in points]

    def test_set_up_walks_no_mapping(self):
        """Loading the automorphisms and their class orbits reads each one at
        single points, and no automorphism walks its |T|-long mapping; diag(T)
        does read the mapping of each non-identity representative."""
        for name in ("A8", "A9", "M12"):
            entry = catalog.load_entry.__wrapped__(name)
            auts = entry.automorphisms
            class_orbit_partition(entry.table, auts)
            assert not any("mapping" in vars(phi) for phi in auts.coset_representatives)
            if name == "A8":
                DiagonalGroup(entry.table, auts).group
                assert all("mapping" in vars(phi) for phi in auts.coset_representatives
                           if not phi.is_identity)

    def test_diagonal_group_is_built_on_first_read(self):
        """Making diag(A8) computes no group and walks no automorphism's
        mapping; the first read of its group does both."""
        entry = catalog.load_entry.__wrapped__("A8")
        auts = entry.automorphisms
        diag = DiagonalGroup(entry.table, auts)
        assert "group" not in vars(diag)
        assert not any("mapping" in vars(phi) for phi in auts.coset_representatives)
        assert diag.group.degree == len(entry.table)
        assert "group" in vars(diag)
        assert all("mapping" in vars(phi) for phi in auts.coset_representatives if not phi.is_identity)

    def test_evaluation_reads_no_cached_mapping(self):
        """Once diag(A8)'s group has walked the mappings of A8's
        representatives, each one's value off its generators still comes from
        its graph's chain: a wrong cached mapping goes unread."""
        entry = catalog.load_entry.__wrapped__("A8")
        t, auts = entry.table, entry.automorphisms
        DiagonalGroup(t, auts).group
        points = [c.representative for c in t.conjugacy_classes()]
        for rep in auts.coset_representatives[1:]:
            walked = extend_images(t, [t.right_multiplication(g) for g in rep.gens], rep.images)
            vars(rep)["mapping"] = (0,) * len(t)
            assert [rep(x) for x in points] == [walked[x] for x in points]

    @pytest.mark.parametrize("name", ["A5", "A6", "PSL(2,8)", "A7", "A8"])
    def test_closure_accepts_plain_index_maps(self, name):
        """close_modulo_inner only calls its parts, so the representatives'
        arrays, read by __getitem__, close to the cosets the Automorphisms
        close to: with the identity map flagged as inversion, 2 |Out| pairs
        that agree at the generating pair and in their flags."""
        t, auts = catalog.load_group_table(name), catalog.load_automorphisms(name)
        outer = auts.coset_representatives[1:]
        a, b = t.generating_pair()
        closed = [
            [(phi(a), phi(b), e) for phi, e in autos.close_modulo_inner(t, parts)]
            for parts in ([(rep, 0) for rep in outer] + [(identity_automorphism(t), 1)],
                          [(rep.mapping.__getitem__, 0) for rep in outer] + [(range(len(t)).__getitem__, 1)])
        ]
        assert closed[0] == closed[1]
        assert len(closed[0]) == 2 * auts.outer_order

    def test_automorphism_group_keeps_pointer_arrays_only(self):
        """A8's automorphism group, built once the table's classes are known,
        keeps nothing of size |T|: each coset representative holds its
        generator images and the chain of its graph on 16 points, about 20 KB
        in all, where one |T|-long tuple would take 161 KB.  A mapping walked
        later holds the table's own int objects, table.index's values."""
        entry = catalog.load_entry.__wrapped__("A8")
        t = entry.table
        t.conjugacy_classes()
        auts, held = retained_bytes(lambda: entry.automorphisms)
        assert auts.outer_order == 2
        assert held <= 32 * 1024 < struct.calcsize("P") * len(t)
        identity = auts.coset_representatives[0].mapping
        assert identity == tuple(range(len(t)))
        assert all(x is y for x, y in zip(identity, t.index.values()))

    @pytest.mark.parametrize("name", ["A5", "A6", "A7", "A8", "PSL(2,7)", "PSL(3,2)", "PSL(2,8)",
                                      "PSL(2,11)", "PSL(2,13)", "M11"])
    def test_class_walk_matches_the_orbit_walk(self, name):
        """The class walk on the R_g arrays records the conjugators and
        classes that orbit_walk finds over the conjugation arrays."""
        t = catalog.load_group_table(name)
        to_rep, classes = classes_by_orbit_walk(t)
        assert [t.to_representative(y) for y in range(len(t))] == to_rep
        assert [(c.representative, c.members) for c in t.conjugacy_classes()] == classes

    def test_classes_keep_members_and_a_class_id_byte_per_element(self):
        """The class split keeps the sorted members, one pointer each, and
        one class-id byte per element, with a few KB for the class objects:
        about 9 bytes per element, where a walk that also kept a conjugator
        per element held about 17."""
        t = catalog.load_entry.__wrapped__("A8").table
        classes, held = retained_bytes(lambda: t.conjugacy_classes())
        assert len(classes) == 14 and type(t._class_of) is bytes
        assert held <= (struct.calcsize("P") + 1) * len(t) + 8 * 1024

    def test_conjugators_are_walked_for_the_class_asked_for(self):
        """to_representative walks only the class of the element asked for
        and keeps that class's conjugators."""
        t = catalog.load_entry.__wrapped__("PSL(2,7)").table
        cls = t.conjugacy_classes()[3]
        assert t._walks == {}
        y = cls.members[-1]
        assert t.conjugate(y, t.to_representative(y)) == cls.representative
        assert list(t._walks) == [3] and sorted(t._walks[3]) == list(cls.members)

    def test_class_walk_conjugators_and_centralizers(self):
        for name in ("A5", "PSL(2,7)", "A7"):
            t = catalog.load_group_table(name)
            for cls in t.conjugacy_classes():
                assert t.to_representative(cls.representative) == 0
                for x in (cls.members[-1], cls.members[len(cls.members) // 2]):
                    assert t.conjugate(x, t.to_representative(x)) == cls.representative
                    expected = frozenset(
                        c for c in range(len(t)) if t.multiply(c, x) == t.multiply(x, c)
                    )
                    assert centralizer(t, x) == expected

    @pytest.mark.parametrize("name", ["A7", "PSL(2,13)"])
    def test_every_element_is_conjugated_to_its_representative(self, name):
        t = catalog.load_group_table(name)
        reps = [cls.representative for cls in t.conjugacy_classes()]
        for y in range(len(t)):
            assert t.conjugate(y, t.to_representative(y)) == reps[t.class_of(y)]

    def test_search_a5(self):
        auts = catalog.load_automorphisms("A5")
        assert auts.order == 120
        assert auts.outer_order == 2
        outer = next(rep for rep in auts.coset_representatives if not rep.is_identity)
        assert inner_witness(auts.table, outer) is None

    def test_aut_group_composition(self):
        auts = catalog.load_automorphisms("A5")
        for rep in auts.coset_representatives:
            assert is_automorphism(auts.table, rep.mapping)
            assert compose(rep, inverse_automorphism(rep)).is_identity

    def test_class_fusion(self):
        t = catalog.load_group_table("A5")
        auts = catalog.load_automorphisms("A5")
        c5a, c5b = t.class_by_name("5A"), t.class_by_name("5B")
        assert auts.class_orbit(c5a) == {c5a, c5b}
        assert auts.class_orbit(t.class_by_name("3A")) == {t.class_by_name("3A")}

        t7 = catalog.load_group_table("PSL(2,7)")
        auts7 = catalog.load_automorphisms("PSL(2,7)")
        c7a, c7b = t7.class_by_name("7A"), t7.class_by_name("7B")
        assert auts7.class_orbit(c7a) == {c7a, c7b}

    def test_supplied_route_matches_search(self):
        supplied = catalog.load_automorphisms("A7")
        assert supplied.order == 5040
        t = supplied.table
        searched = search_automorphism_group(t)
        assert searched.order == 5040
        assert searched.outer_order == supplied.outer_order == 2
        for s in searched.coset_representatives:
            assert sum(
                inner_witness(t, compose(s, inverse_automorphism(r))) is not None
                for r in supplied.coset_representatives
            ) == 1


def _no_scan(n):
    """A range for the tables module that refuses range(n), a pass over T."""

    def guarded(*args):
        assert args != (n,), "a pass over all of T"
        return range(*args)

    return guarded


def _count_products(monkeypatch, table):
    """Count the table's multiply calls from now on, in counter["calls"]."""
    counter = {"calls": 0}
    multiply = table.multiply

    def counting(i, j):
        counter["calls"] += 1
        return multiply(i, j)

    monkeypatch.setattr(table, "multiply", counting)
    return counter


@pytest.mark.parametrize("name", sorted(AUT_ORDERS))
def test_automorphism_orders(name):
    auts = catalog.load_automorphisms(name)
    order, outer = AUT_ORDERS[name]
    assert auts.order == order
    assert auts.outer_order == outer


class TestDiagonalAction:
    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)"])
    def test_translations_match_multiply(self, name):
        t = catalog.load_group_table(name)
        n = len(t)
        for s in random.Random(5).sample(range(n), 6):
            assert t.right_multiplication(s) == tuple(t.multiply(x, s) for x in range(n))
            assert right_translation(t, s).images == tuple(t.multiply(x, s) for x in range(n))
            assert left_translation(t, s).images == tuple(
                t.multiply(t.inverse[s], x) for x in range(n))

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "PSL(2,8)", "M11"])
    def test_generator_arrays_are_kept_from_the_bfs(self, name):
        """R_g of every table generator, PSL(2,8)'s three among them, is read
        back from the products the BFS interleaved x by x and g by g."""
        t = catalog.load_group_table(name)
        n = len(t)
        for g in t.generator_indices:
            right = t.right_multiplication(g)
            assert right == tuple(t.multiply(x, g) for x in range(n))
            assert right is t._rights[g] and t.right_multiplication(g) is right

    def test_identity_and_repeated_generators_change_no_array(self):
        """C6 built from [1, g, g] is numbered as from [g]: the same table,
        inverses and R arrays."""
        g = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
        plain = build_group_table(PermutationGroup([g], 5))
        padded = build_group_table(PermutationGroup([identity(5), g, g], 5))
        assert len(plain) == 6
        assert padded.images == plain.images and padded.index == plain.index
        assert padded.inverse == plain.inverse
        assert padded.generator_indices == [0, 1, 1] and plain.generator_indices == [1]
        assert padded._rights == plain._rights | {0: tuple(range(6))}

    @pytest.mark.parametrize("degree", [1, 3])
    def test_kernels_on_the_trivial_table(self, degree):
        """|T| = 1, on one point and on three: both translations give (0,)."""
        t = build_group_table(PermutationGroup([], degree))
        assert len(t) == 1
        assert t.right_multiplication(0) == (0,)
        assert right_translation(t, 0).images == left_translation(t, 0).images == (0,)

    def test_diagonal_build_makes_each_generator_array_once(self, monkeypatch):
        """diagonal_order builds R_g for T's generators once and passes them to
        every is_automorphism call: 21 arrays on A5, not 28, two of them the
        R_t that left_translation reads for the left translations."""
        t, auts = catalog.load_group_table("A5"), catalog.load_automorphisms("A5")
        t.conjugacy_classes()
        counter = {"calls": 0}
        right_multiplication = t.right_multiplication

        def counting(g):
            counter["calls"] += 1
            return right_multiplication(g)

        monkeypatch.setattr(t, "right_multiplication", counting)
        DiagonalGroup(t, auts).group
        assert counter["calls"] <= 21

    def test_translation_identities(self):
        t = catalog.load_group_table("A5")
        rng = random.Random(3)
        inv = inversion_map(t)
        for _ in range(20):
            s, u = rng.randrange(60), rng.randrange(60)
            r_s, l_u = right_translation(t, s), left_translation(t, u)
            assert perm_product(l_u, r_s) == perm_product(r_s, l_u)
            assert perm_product(inv, r_s, inv) == left_translation(t, s)
            conj = Permutation(tuple(t.conjugate(x, s) for x in range(60)))
            assert perm_product(left_translation(t, s), r_s) == conj

    def test_build_diagonal_a5(self):
        t = catalog.load_group_table("A5")
        auts = catalog.load_automorphisms("A5")
        diag = DiagonalGroup(t, auts)
        assert diag.group.degree == 60
        assert diag.label == "diag(A5)"
        assert diag.group.order() == 60 * 60 * 2 * 2
        assert diag.group.is_transitive()
        for s in (0, 9, 44):
            assert group_contains(diag.group, right_translation(t, s))
            assert group_contains(diag.group, left_translation(t, s))
        assert group_contains(diag.group, inversion_map(t))
        for rep in auts.coset_representatives:
            assert group_contains(diag.group, Permutation(rep.mapping))

    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "PSL(3,2)", "A6", "PSL(2,8)"])
    def test_order_count_matches_schreier_sims(self, name):
        t, auts = catalog.load_group_table(name), catalog.load_automorphisms(name)
        diag = DiagonalGroup(t, auts)
        count = diagonal_order(t, diag.group)
        assert count == len(t) ** 2 * auts.outer_order * 2
        assert count == diag.group.order()  # the stabilizer chain as the oracle
        # without inversion the count halves, still equal to the chain's order
        half = PermutationGroup(diag.group.generators[:-1], len(t))
        assert diagonal_order(t, half) == half.order() == count // 2

    def test_order_count_rejects_an_injected_transposition(self):
        t, auts = catalog.load_group_table("A5"), catalog.load_automorphisms("A5")
        gens = list(DiagonalGroup(t, auts).group.generators)
        swap = Permutation.from_cycles(60, [[1, 2]])
        for k in range(len(gens)):
            wrong = gens[:k] + [perm_product(gens[k], swap)] + gens[k + 1:]
            with pytest.raises(VerificationInconsistency, match=f"generator {k} is no"):
                diagonal_order(t, PermutationGroup(wrong, 60))

    def test_builder_rejects_wrong_generators(self, monkeypatch):
        t, auts = catalog.load_group_table("A5"), catalog.load_automorphisms("A5")
        swap = Permutation.from_cycles(60, [[1, 2]])
        with monkeypatch.context() as m:
            m.setattr(diagonal, "left_translation", lambda table, g: perm_product(left_translation(table, g), swap))
            with pytest.raises(VerificationInconsistency, match="is no translation"):
                DiagonalGroup(t, auts).group
        with monkeypatch.context() as m:
            # inversion dropped: the identity in its place
            m.setattr(diagonal, "inversion_map", lambda table: identity(len(table)))
            with pytest.raises(VerificationInconsistency, match="order 7200 != "):
                DiagonalGroup(t, auts).group
        with monkeypatch.context() as m:
            # the left translations replaced by right ones: T_L is missing
            m.setattr(diagonal, "left_translation", right_translation)
            with pytest.raises(VerificationInconsistency, match="left translations"):
                DiagonalGroup(t, auts).group

    def test_subgroup_images(self):
        t = catalog.load_group_table("A5")
        auts = catalog.load_automorphisms("A5")
        diag = DiagonalGroup(t, auts)
        a4 = catalog.resolve_subgroup("A5", "A4")
        # the images the diagonal pair builder walks: right translations by A's generators
        right = PermutationGroup([right_translation(t, g) for g in a4.gens], diag.group.degree)
        assert right.order() == 12
        assert right.orbit(0) == set(a4)
        assert all(group_contains(right, right_translation(t, a)) for a in a4)

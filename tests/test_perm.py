"""Permutation arithmetic and stabilizer-chain behavior."""

import math
import random
import re

import pytest

from helpers import (
    group_contains,
    identity,
    is_identity,
    moved_points,
    naive_bfs_order,
    naive_elements,
    naive_orbit,
    point_stabilizer_group,
    perm_inverse,
    perm_product,
    power,
    sorted_tuple_set_orbit,
)
from spreadcheck import catalog, perm
from spreadcheck.catalog import parse_permutation
from spreadcheck.diagonal import DiagonalGroup
from spreadcheck.errors import CapExceeded
from spreadcheck.perm import (
    Permutation,
    PermutationGroup,
    compose_images,
    orbit_walk,
)
from spreadcheck.tables import GroupTable


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, list(cycles))


class TestPermutation:
    def test_identity(self):
        e = identity(4)
        assert is_identity(e)
        assert e.order() == 1
        assert e.cycle_string() == "()"
        assert is_identity(identity(0))
        assert not is_identity(cyc(4, [2, 3]))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_from_cycles(self):
        p = cyc(5, [0, 1, 2])
        assert [p(i) for i in range(5)] == [1, 2, 0, 3, 4]
        with pytest.raises(ValueError):
            cyc(3, [0, 1], [1, 2])
        with pytest.raises(ValueError):
            cyc(3, [0, 5])

    def test_compose_applies_left_factor_first(self):
        p = cyc(3, [0, 1])
        q = cyc(3, [1, 2])
        assert perm_product(p, q)(0) == q(p(0)) == 2
        assert perm_product(p, q).images == compose_images(p.images, q.images)

    @pytest.mark.parametrize(
        "p,q,expected",
        [((), (), ()), ((0,), (0,), (0,)), ((1, 0), (1, 0), (0, 1)), ((0, 1), (1, 0), (1, 0))],
    )
    def test_compose_images_small_degrees(self, p, q, expected):
        assert compose_images(p, q) == expected
        assert perm_product(Permutation(p), Permutation(q)).images == expected

    def test_compose_images_of_point_sets(self):
        q = (4, 3, 2, 1, 0)
        assert compose_images(frozenset(), q) == ()
        assert compose_images(frozenset({1}), q) == (3,)
        assert sorted(compose_images(frozenset({0, 4, 2}), q)) == [0, 2, 4]

    def test_inverse_and_pow(self):
        p = cyc(7, [0, 1, 2, 3, 4], [5, 6])
        assert perm_product(p, perm_inverse(p)) == identity(7)
        assert power(p, 10) == perm_product(power(p, 5), power(p, 5))
        assert power(p, -3) == power(perm_inverse(p), 3)
        assert p.order() == 10

    def test_cycle_roundtrip(self):
        p = cyc(6, [0, 3], [1, 4, 5])
        assert Permutation.from_cycles(6, p.cycles()) == p
        assert p.cycle_string() == "(0 3)(1 4 5)"
        assert moved_points(p) == [0, 1, 3, 4, 5]

    def test_cycles_walk_only_the_moved_points(self, monkeypatch):
        """The identity of degree 1000 makes no orbit_walk call and has order
        1.  With fixed points included, the cycles are each point's orbit led
        by its smallest point, in the order of those points; without them,
        the same list less its 1-cycles."""
        walks = []
        monkeypatch.setattr(perm, "orbit_walk", lambda *args: walks.append(args) or orbit_walk(*args))
        e = identity(1000)
        assert (e.cycles(), e.order(), e.cycle_string()) == ([], 1, "()")
        assert walks == []
        assert e.cycles(include_fixed=True) == [(x,) for x in range(1000)]
        rng = random.Random(7)
        for _ in range(30):
            images = list(range(12))
            rng.shuffle(images)
            p, expected, seen = Permutation(images), [], set()
            for start in range(12):
                cycle = [start]
                while images[cycle[-1]] != start:
                    cycle.append(images[cycle[-1]])
                if start not in seen:
                    seen.update(cycle)
                    expected.append(tuple(cycle))
            assert p.cycles(include_fixed=True) == expected
            assert p.cycles() == [c for c in expected if len(c) > 1]
            assert p.order() == math.lcm(*map(len, expected))

    def test_parse_permutation(self):
        assert parse_permutation([1, 0, 2], 3) == cyc(3, [0, 1])
        assert parse_permutation([[0, 1]], 3) == cyc(3, [0, 1])
        assert is_identity(parse_permutation([], 3))
        with pytest.raises(ValueError):
            parse_permutation([0, 1], 3)
        with pytest.raises(ValueError):
            parse_permutation("(0 1)", 3)


def _s4():
    return PermutationGroup([cyc(4, [0, 1, 2, 3]), cyc(4, [0, 1])], 4)


def _a5():
    return PermutationGroup([cyc(5, [0, 1, 2, 3, 4]), cyc(5, [0, 1, 2])], 5)


class TestPermutationGroup:
    @pytest.mark.parametrize(
        "gens,degree,order",
        [
            ([[[0, 1, 2, 3]], [[0, 1]]], 4, 24),
            ([[[0, 1, 2, 3, 4]], [[0, 1, 2]]], 5, 60),
            ([[[0, 1, 2, 3, 4]], [[1, 4], [2, 3]]], 5, 10),
            ([[[0, 1, 2], [3, 4]]], 5, 6),
        ],
    )
    def test_order_matches_naive_closure(self, gens, degree, order):
        perms = [Permutation.from_cycles(degree, g) for g in gens]
        group = PermutationGroup(perms, degree)
        closure = naive_elements(perms, degree)
        assert group.order() == len(closure) == order
        assert all(group_contains(group, p) for p in closure)

    def test_malformed_arguments_raise(self):
        a5 = _a5()
        for call, message in [
            (lambda: PermutationGroup([]), "degree required for a generator-free (trivial) group"),
            (lambda: PermutationGroup([cyc(3, [0, 1, 2]), cyc(2, [0, 1])]),
             "generator degree 2 != group degree 3"),
            (lambda: a5.orbit(5), "point 5 out of range for degree 5"),
            (lambda: a5.set_orbit([0, 5]), "point 5 out of range for degree 5"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_membership_rejects_outsiders(self):
        a5 = _a5()
        assert not group_contains(a5, cyc(5, [0, 1]))
        assert group_contains(a5, cyc(5, [0, 1], [2, 3]))

    def test_orbits_and_transitivity(self):
        split = PermutationGroup([cyc(4, [0, 1]), cyc(4, [2, 3])], 4)
        assert split.orbits() == [{0, 1}, {2, 3}]
        assert not split.is_transitive()
        assert _a5().is_transitive()
        assert _a5().orbit(2) == naive_orbit(_a5().generators, 2)

    def test_transversal_reaches_each_point(self):
        group = _s4()
        trans = orbit_walk({0: identity(4)}, _point_steps(group))
        assert set(trans) == {0, 1, 2, 3}
        for pt, rep in trans.items():
            assert rep(0) == pt

    def test_orbit_stabilizer_product(self):
        for group in (_s4(), _a5()):
            stab = point_stabilizer_group(group, 0)
            assert len(group.orbit(0)) * stab.order() == group.order()
            assert all(g(0) == 0 for g in stab.generators)

    def test_elements_cap(self):
        # the table is the one enumeration of a group's elements
        assert len(GroupTable(_s4())) == 24
        with pytest.raises(CapExceeded):
            GroupTable(_s4(), cap=10)

    def test_set_orbit_matches_reenumeration(self):
        a4 = PermutationGroup([cyc(4, [0, 1, 2]), cyc(4, [1, 2, 3])], 4)
        orbit = a4.set_orbit({0, 1})
        assert len(orbit) == 6
        assert {tuple(sorted(s)) for s in orbit} == sorted_tuple_set_orbit(a4, {0, 1})

    def test_set_orbit_cap(self):
        with pytest.raises(CapExceeded):
            _a5().set_orbit({0, 1}, cap=3)

    def test_trivial_group(self):
        t = PermutationGroup((), 6)
        assert t.order() == 1
        assert t.orbit(3) == {3}


def _point_steps(group):
    return [(g.images.__getitem__, lambda u, g=g: perm_product(u, g)) for g in group.generators]


def _set_image(g):
    return lambda s: frozenset(g(p) for p in s)


class TestOrbitWalk:
    """The one breadth-first orbit walk, its order, its cap and its transversal."""

    def _groups(self):
        psl27 = catalog.load_entry("PSL(2,7)").group
        return [_s4(), _a5(), psl27, PermutationGroup([cyc(6, [0, 1], [2, 3])], 6)]

    def test_points_come_breadth_first_in_step_order(self):
        for group in self._groups():
            for point in (0, group.degree - 1):
                walk = orbit_walk({point: identity(group.degree)}, _point_steps(group))
                assert list(walk) == naive_bfs_order(point, group.generators)
            start = frozenset({0, 2})
            expected = naive_bfs_order(start, [_set_image(g) for g in group.generators])
            assert group.set_orbit(start) == expected

    def test_cap_counts_points(self):
        group = _a5()
        start = frozenset({0, 1})
        steps = [(_set_image(g), lambda u: u) for g in group.generators]
        assert len(orbit_walk({start: None}, steps, 10, "pair orbit")) == 10
        with pytest.raises(CapExceeded, match="^pair orbit exceeded cap of 9;") as caught:
            orbit_walk({start: None}, steps, 9, "pair orbit")
        assert (caught.value.what, caught.value.cap) == ("pair orbit", 9)
        assert len(group.set_orbit(start, cap=10)) == 10
        with pytest.raises(CapExceeded, match="^set orbit exceeded cap of 9;"):
            group.set_orbit(start, cap=9)
        # the start is not counted against the cap: a fixed set passes cap 0
        assert group.set_orbit(range(5), cap=0) == [frozenset(range(5))]

    def test_transversal_takes_start_to_each_point(self):
        for group in self._groups():
            walk = orbit_walk({1: identity(group.degree)}, _point_steps(group))
            assert set(walk) == group.orbit(1) == naive_orbit(group.generators, 1)
            assert all(u(1) == pt for pt, u in walk.items())

    def test_a_walk_is_extended_in_place(self):
        """A walk closed under some steps grows, append-only, under more: the
        points it had keep their order and their transversal elements."""
        for group in self._groups():
            steps = _point_steps(group)
            walk = orbit_walk({0: identity(group.degree)}, steps[:1])
            before = list(walk.items())
            assert orbit_walk(walk, steps) is walk
            assert list(walk.items())[:len(before)] == before
            assert set(walk) == group.orbit(0)
            assert all(u(0) == pt for pt, u in walk.items())

    def test_table_transversal_conjugates_start_to_each_point(self):
        t = catalog.load_group_table("A5")
        steps = [
            (lambda x, g=g: t.conjugate(x, g), lambda u, g=g: t.multiply(u, g))
            for g in t.generator_indices
        ]
        for cls in t.conjugacy_classes():
            start = cls.members[-1]
            walk = orbit_walk({start: 0}, steps)
            assert sorted(walk) == list(cls.members)
            assert all(t.conjugate(start, u) == y for y, u in walk.items())


class TestDiagonalChains:
    """The stabilizer chains of diag(T) are pinned: base, basic orbit lengths
    and strong generators per level are part of the deterministic contract."""

    @pytest.mark.parametrize(
        "name,order,orbit_lengths",
        [("A5", 14400, [60, 24, 5, 2]), ("PSL(2,7)", 112896, [168, 48, 7, 2])],
    )
    def test_chain_shape(self, name, order, orbit_lengths):
        diag = DiagonalGroup(catalog.load_group_table(name), catalog.load_automorphisms(name))
        chain = diag.group._chain
        assert diag.group.order() == order
        assert [level.base for level in chain.levels] == [0, 1, 2, 4]
        assert [len(level.inv_transversal) for level in chain.levels] == orbit_lengths
        assert [len(level.gens) for level in chain.levels] == [6, 5, 2, 1]
        for level in chain.levels:
            for beta, u_inv in level.inv_transversal.items():
                assert u_inv[beta] == level.base
            for g, g_inv in zip(level.gens, level.gen_invs):
                assert compose_images(g, g_inv) == chain.identity

    def test_contains(self):
        diag = DiagonalGroup(catalog.load_group_table("A5"), catalog.load_automorphisms("A5"))
        assert all(group_contains(diag.group, g) for g in diag.group.generators)
        assert group_contains(diag.group, perm_product(diag.group.generators[0], diag.group.generators[-1]))
        # diag(A5) is primitive and not the full symmetric group, so it holds no transposition
        assert not group_contains(diag.group, Permutation.from_cycles(60, [[1, 2]]))

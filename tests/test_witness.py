"""Witness verification, the subgroup-pair builder, and coset orbit reports."""

import json

import pytest

from helpers import (
    conjugate_subgroup,
    diagonal_witness_by_walk,
    fixed_point_average,
    indicator,
    orbit_bound_holds,
    product_set,
    recheck_refutation,
    recheck_witness,
    supplement_per_coset,
    sylow_normalizer,
    uniform,
)
from spreadcheck import catalog
from spreadcheck.errors import InvalidSubgroup, VerificationInconsistency
from spreadcheck.perm import Permutation, PermutationGroup
from spreadcheck.tables import (
    build_group_table,
    cauchy_frobenius_count,
    sylow_subgroup,
    validate_subgroup,
)
from spreadcheck.witness import (
    Multiset,
    Refutation,
    Witness,
    constructed_witness,
    diagonal_witness,
    image_weight,
    orbit_count_pair,
    supplement_property,
    two_point_stabilizer_trivial,
    verify_witness,
    witness_from_subgroup_pair,
)


class TestMultiset:
    def test_basic_operations(self):
        m = Multiset((1, 0, 2, 0))
        assert m.cardinality == 3
        assert m.domain_size == 4
        assert m.support() == [0, 2]
        assert m.counts[2] == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Multiset((1, -1))

    def test_triviality(self):
        assert uniform(5, 3).is_trivial
        assert indicator([2], 5).is_trivial
        assert Multiset((0, 0, 0, 0)).is_trivial
        assert not indicator([1, 3], 5).is_trivial

    def test_json_roundtrip(self, tmp_path):
        m = Multiset((0, 2, 0, 1, 0, 3))
        assert m.to_json() == {"1": 2, "3": 1, "5": 3}
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"set": [1], "multiset": m.to_json()}))
        assert catalog.read_witness(path, 6) == (frozenset({1}), m)

    def test_image_weight(self):
        m = Multiset((2, 0, 1, 5))
        assert image_weight([0, 2], m) == 3
        assert image_weight([], m) == 0


def _c6():
    return PermutationGroup([Permutation((1, 2, 3, 4, 5, 0))], 6)


class TestVerifyWitness:
    """The regular order-6 rotation group gives tiny hand-checkable cases."""

    def test_verified_witness(self):
        w = verify_witness(_c6(), {0, 3}, Multiset((2, 2, 2, 0, 0, 0)))
        assert isinstance(w, Witness)
        assert w.constant == 2
        assert w.to_json()["verified"] is True
        recheck_witness(w, sweep_cap=10)

    def test_set_trivial(self):
        group = _c6()
        for points in ({0}, set(range(6))):
            ref = verify_witness(group, points, Multiset((2, 2, 2, 0, 0, 0)))
            assert isinstance(ref, Refutation)
            assert ref.violation == "set-trivial"
            recheck_refutation(ref, group)

    def test_multiset_trivial(self):
        ref = verify_witness(_c6(), {0, 3}, uniform(6, 2))
        assert ref.violation == "multiset-trivial"
        recheck_refutation(ref)

    def test_cardinality_must_divide_domain(self):
        ref = verify_witness(_c6(), {0, 3}, Multiset((1, 1, 1, 1, 0, 0)))
        assert ref.violation == "cardinality"
        assert ref.counterexample == {"cardinality": 4, "domain_size": 6}
        recheck_refutation(ref)

    def test_non_constant_carries_counterexample(self):
        group = _c6()
        ref = verify_witness(group, {0, 3}, indicator([0, 1], 6))
        assert ref.violation == "non-constant"
        assert ref.counterexample["constant"] != ref.counterexample["image_weight"]
        recheck_refutation(ref, group)

    def test_requires_transitive_group(self):
        """The group must be transitive, and X and J must lie on its domain."""
        intransitive = PermutationGroup([Permutation((1, 0, 2, 3))], 4)
        a5 = catalog.load_entry("A5").group
        for group, points, multiset, message in [
            (intransitive, {0, 1}, uniform(4, 1), "requires a transitive group"),
            (a5, {0, 1}, uniform(4, 1), "multiset domain 4 != group degree 5"),
            (a5, {0, 7}, uniform(5, 1), "set contains points outside the domain"),
        ]:
            with pytest.raises(ValueError, match=message):
                verify_witness(group, points, multiset)


def _c6_pair():
    """C6 on 6 points with A = {0, 2, 4} (the subgroup of order 3) and B = 1."""
    group = PermutationGroup([Permutation((1, 2, 3, 4, 5, 0))], 6)
    t = build_group_table(group, name="C6")
    return validate_subgroup(t, {0, 2, 4}), frozenset({0})


class TestSubgroupPairBuilder:
    def test_pair_witness_on_rotation_group(self):
        a, b = _c6_pair()
        w = witness_from_subgroup_pair(a, b, 0, {0, 2, 4}, group_label="C6")
        assert isinstance(w, Witness)
        assert w.constant == 3
        assert w.multiset.counts == (3, 1, 0, 1, 0, 1)
        recheck_witness(w, sweep_cap=10)
        # the point set defaults to the A-orbit of the base point
        assert witness_from_subgroup_pair(a, b, 0, group_label="C6") == w

    def test_block_not_covered_by_b(self):
        a, b = _c6_pair()
        ref = witness_from_subgroup_pair(a, b, 0, {0, 1}, group_label="C6")
        assert isinstance(ref, Refutation)
        assert ref.violation == "B-not-transitive-on-orbit"
        recheck_refutation(ref)

    def test_orbit_split_too_small(self):
        # natural 5-point action: the V4 orbit of 0 already fills the A4 orbit
        a4 = catalog.resolve_subgroup("A5", "A4")
        v4 = catalog.resolve_subgroup("A5", "V4")
        ref = witness_from_subgroup_pair(a4, v4, 0, {0, 1, 3, 4})
        assert ref.violation == "k-too-small"
        assert ref.counterexample["k"] == 1
        recheck_refutation(ref)

    def test_structural_violations_raise(self):
        s4 = PermutationGroup([Permutation.from_cycles(4, [[0, 1, 2, 3]]), Permutation.from_cycles(4, [[0, 1]])], 4)
        t4 = build_group_table(s4, name="S4")
        s3 = validate_subgroup(t4, {i for i in range(24) if t4.elements[i](3) == 3})
        c2 = frozenset({0, t4.index[bytes(Permutation.from_cycles(4, [[0, 1]]).images)]})
        c2_other = frozenset({0, t4.index[bytes(Permutation.from_cycles(4, [[0, 3]]).images)]})
        a4 = frozenset(i for i, p in enumerate(t4.elements)
                       if sum(len(c) - 1 for c in p.cycles()) % 2 == 0)  # even permutations
        for a, b, message in [
            (s3, c2, "B is not normalized by A"),
            (s3, s3, "B must be a proper subgroup of A"),
            (s3, c2_other, "B must be contained in A"),
            (validate_subgroup(t4, range(24)), a4, "A must be a proper subgroup of T"),
        ]:
            with pytest.raises(InvalidSubgroup, match=message):
                witness_from_subgroup_pair(a, b, 0, {0, 1})
        intransitive = build_group_table(PermutationGroup([Permutation((1, 0, 2))], 3), name="C2")
        with pytest.raises(ValueError, match="the ambient group must be transitive"):
            witness_from_subgroup_pair(validate_subgroup(intransitive, {0, 1}), frozenset({0}), 0)


class TestConstructedWitness:
    """The one builder of J = Omega + k*[P] - [M]: a wrong size or a refuting
    verifier raises."""

    def test_wrong_size_is_not_verified(self):
        def verify(x, j):
            raise AssertionError("a multiset of the wrong size was verified")
        with pytest.raises(VerificationInconsistency, match="cardinality 5 != domain size 6"):
            constructed_witness(verify, 6, frozenset({0, 3}), {1, 2}, {0, 3, 4})

    def test_refuting_verifier_raises(self):
        seen = []

        def refute(x, j):
            seen.append(j.counts)
            return Refutation("C6", x, j, "non-constant", {})
        with pytest.raises(VerificationInconsistency, match="re-verification: non-constant"):
            constructed_witness(refute, 6, frozenset({0, 3}), {1}, {0, 2})
        assert seen == [(0, 3, 0, 1, 1, 1)]


DIAGONAL_CASES = {
    ("A5", "A4", "V4"): (12, 60, [0, 1, 3]),
    ("A5", "D10", "C5"): (10, 60, [0, 1, 2]),
    ("A6", "F36", "E9"): (36, 360, [0, 1, 4]),
    ("PSL(2,7)", "F21", "C7"): (21, 168, [0, 1, 3]),
    ("PSL(3,2)", "F21", "C7"): (21, 168, [0, 1, 3]),
    ("PSL(2,8)", "F56", "E8"): (56, 504, [0, 1, 7]),
}


@pytest.mark.parametrize("key", sorted(DIAGONAL_CASES))
def test_diagonal_witness_frozen_cases(key):
    name, a_label, b_label = key
    constant, cardinality, values = DIAGONAL_CASES[key]
    table = catalog.load_group_table(name)
    auts = catalog.load_automorphisms(name)
    w = diagonal_witness(
        table, auts, catalog.resolve_subgroup(name, a_label), catalog.resolve_subgroup(name, b_label)
    )
    assert isinstance(w, Witness)
    assert w.constant == constant
    assert w.multiset.cardinality == cardinality
    assert sorted(set(w.multiset.counts)) == values
    assert w.group_label == f"diag({name})"
    recheck_witness(w)


def test_diagonal_witness_rejects_bad_pairs():
    table = catalog.load_group_table("A5")
    auts = catalog.load_automorphisms("A5")
    c5 = catalog.resolve_subgroup("A5", "C5")
    a4 = catalog.resolve_subgroup("A5", "A4")
    with pytest.raises(InvalidSubgroup):
        diagonal_witness(table, auts, c5, c5)
    with pytest.raises(InvalidSubgroup):
        diagonal_witness(table, auts, a4, c5)


class TestSupplementProperty:
    def test_holds_for_a4_v4(self):
        t = catalog.load_group_table("A5")
        a4 = catalog.resolve_subgroup("A5", "A4")
        v4 = catalog.resolve_subgroup("A5", "V4")
        for scope in ("T", "Aut"):
            report = supplement_property(t, a4, v4, scope=scope, auts=catalog.load_automorphisms("A5"))
            assert report.holds
            assert report.scope == scope
            assert report.to_json() == {"holds": True, "scope": scope}

    def test_fails_for_c5_trivial(self):
        t = catalog.load_group_table("A5")
        c5 = catalog.resolve_subgroup("A5", "C5")
        report = supplement_property(t, c5, frozenset({0}))
        assert not report.holds
        assert report.failing_element == 2
        # recheck: A and B(A cap A^t) really differ at the failing conjugator
        meet = c5 & conjugate_subgroup(t, c5, report.failing_element)
        assert product_set(t, frozenset({0}), meet) != c5

    def test_scope_validation(self):
        t = catalog.load_group_table("A5")
        c5 = catalog.resolve_subgroup("A5", "C5")
        with pytest.raises(ValueError):
            supplement_property(t, c5, frozenset({0}), scope="G")
        with pytest.raises(ValueError):
            supplement_property(t, c5, frozenset({0}), scope="Aut")  # needs auts


SUBGROUPS_GROUPS = ["A5", "A6", "A7", "A8", "PSL(2,7)", "PSL(3,2)", "PSL(2,8)", "PSL(2,11)",
                    "PSL(2,13)", "M11", "M12"]


def _candidate_subgroups(name):
    """The recipe subgroups, the Sylow 2-, 3- and 5-subgroups and their
    normalizers, and 1, each once."""
    entry = catalog.load_entry(name)
    t = entry.table
    found = [entry.subgroup(label) for label in entry.subgroups] + [validate_subgroup(t, {0})]
    for p in (2, 3, 5):
        if len(t) % p == 0:
            found += [sylow_subgroup(t, p), validate_subgroup(t, sylow_normalizer(t, p))]
    return list({frozenset(h): h for h in found}.values())


def _normal_pairs(name):
    """Every pair B < A of candidate subgroups with B normal in A and A < T;
    on M12 only its catalog pair, as the per-coset route is slow there."""
    entry = catalog.load_entry(name)
    t = entry.table
    if name == "M12":
        return [tuple(entry.subgroup(label) for label in pair) for pair in entry.supplement_pairs]
    subgroups = _candidate_subgroups(name)
    return [(a, b) for a in subgroups for b in subgroups
            if b < a and len(a) < len(t) and all(t.conjugate(x, g) in b for x in b.gens for g in a.gens)]


@pytest.mark.parametrize("name", SUBGROUPS_GROUPS)
def test_supplement_matches_the_per_coset_route(name):
    """The orbit-count decision and its failure locator give the report of
    the per-coset test |B (A cap H^t)| = |A|, failing element and outer coset
    included, over both scopes."""
    t = catalog.load_group_table(name)
    auts = catalog.load_automorphisms(name)
    pairs = _normal_pairs(name)
    assert pairs
    for a, b in pairs:
        for scope in ("T", "Aut"):
            expected = supplement_per_coset(t, a, b, scope, auts).to_json()
            assert supplement_property(t, a, b, scope, auts).to_json() == expected, (len(a), len(b))


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "PSL(3,2)", "A6", "PSL(2,8)", "PSL(2,11)",
                                  "PSL(2,13)"])
def test_diagonal_witness_matches_the_set_orbit_walk(name):
    """On every normal pair, diagonal_witness, which decides by the supplement
    property over Aut and walks once, reports what the walk of every image's
    A- and B-set orbits reports, and it verifies exactly when the property
    holds."""
    t = catalog.load_group_table(name)
    auts = catalog.load_automorphisms(name)
    for a, b in _normal_pairs(name):
        result = diagonal_witness(t, auts, a, b)
        assert result.to_json() == diagonal_witness_by_walk(t, auts, a, b).to_json(), (len(a), len(b))
        assert isinstance(result, Witness) is supplement_property(t, a, b, "Aut", auts).holds


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A7", "M11"])
def test_character_count_matches_the_fixed_point_average(name):
    """The permutation-character count equals the fixed points of action_of,
    averaged, for every pair of candidate subgroups whose oracle reads at most
    50,000 coset images (|S| |T:H|)."""
    t = catalog.load_group_table(name)
    subgroups = _candidate_subgroups(name)
    for h in subgroups:
        for s in subgroups:
            if len(s) * (len(t) // len(h)) > 50_000:
                continue
            assert cauchy_frobenius_count(t, h, s) == fixed_point_average(t, h, s), (len(h), len(s))


COUNT_CASES = {
    ("A5", "A4", "V4"): (2, 2),
    ("A5", "D10", "C5"): (2, 2),
    ("A5", "C5", "1"): (4, 12),
    ("A6", "F36", "E9"): (2, 2),
    ("A7", "stab3", "stab3_even"): (4, 4),
    ("A8", "stab3", "stab3_even"): (4, 4),
    ("PSL(2,7)", "F21", "C7"): (2, 2),
    ("PSL(3,2)", "F21", "C7"): (2, 2),
    ("PSL(2,8)", "F56", "E8"): (2, 2),
    ("PSL(2,11)", "F55", "C11"): (2, 2),
    ("PSL(2,13)", "F78", "C13"): (2, 2),
    ("M11", "M10", "A6"): (2, 2),
    ("M12", "2xS5", "S5"): (10, 10),
}


@pytest.mark.parametrize("key", sorted(COUNT_CASES))
def test_orbit_count_pairs(key):
    name, a_label, b_label = key
    t = catalog.load_group_table(name)
    a = catalog.resolve_subgroup(name, a_label)
    b = catalog.resolve_subgroup(name, b_label)
    assert orbit_count_pair(t, a, b) == COUNT_CASES[key]


def test_orbit_count_requires_containment():
    t = catalog.load_group_table("A5")
    with pytest.raises(InvalidSubgroup):
        orbit_count_pair(t, catalog.resolve_subgroup("A5", "C5"), catalog.resolve_subgroup("A5", "V4"))


class TestTwoPointStabilizers:
    def test_c5_has_trivial_intersection(self):
        t = catalog.load_group_table("A5")
        c5 = catalog.resolve_subgroup("A5", "C5")
        found = two_point_stabilizer_trivial(t, c5)
        assert found is not None
        assert c5 & conjugate_subgroup(t, c5, found) == frozenset({0})
        assert not orbit_bound_holds(t, c5)

    def test_a4_never_trivial(self):
        t = catalog.load_group_table("A5")
        a4 = catalog.resolve_subgroup("A5", "A4")
        assert two_point_stabilizer_trivial(t, a4) is None
        assert orbit_bound_holds(t, a4)

    def test_requires_proper_subgroup(self):
        t = catalog.load_group_table("A5")
        with pytest.raises(InvalidSubgroup):
            two_point_stabilizer_trivial(t, frozenset(range(60)))

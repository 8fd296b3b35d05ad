"""Acceptance checks: one test per shipped criterion, each with a wall-clock budget."""

import json
import time

from helpers import (
    class_algebra_consistent,
    conjugate_subgroup,
    naive_orbit,
    point_stabilizer_group,
    recheck_refutation,
    recheck_witness,
    sorted_tuple_set_orbit,
)
from spreadcheck import catalog
from spreadcheck.chartab import (
    character_triple_search,
    class_orbit_partition,
    column_orthogonality_holds,
    dixon_character_table,
    row_orthogonality_holds,
    validate_character_witness,
)
from spreadcheck.cli import main
from spreadcheck.diagonal import DiagonalGroup
from spreadcheck.tables import (
    cauchy_frobenius_count,
    coset_space,
    orbits_on_cosets,
)
from spreadcheck.witness import (
    Multiset,
    Refutation,
    Witness,
    diagonal_witness,
    image_weight,
    orbit_count_pair,
    supplement_property,
    two_point_stabilizer_trivial,
    verify_witness,
    witness_from_subgroup_pair,
)


def _finish(n: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"[acceptance] criterion {n}: PASS ({elapsed:.2f}s) {detail}")


def _cli_witness(capsys, name, a_label, b_label):
    code = main(
        ["spreading", "diagonal-witness", "--group", name, "--A", a_label, "--B", b_label, "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "verified"
    return report["certificate"]


def _independent_orbit_check(name, cert):
    """Re-walk the full set orbit of the certificate and re-sum every image."""
    table = catalog.load_group_table(name)
    diag = DiagonalGroup(table, catalog.load_automorphisms(name))
    points = frozenset(cert["set"])
    multiset = Multiset(tuple(cert["multiset"].get(str(i), 0) for i in range(len(table))))
    weights = {
        image_weight(img, multiset)
        for img in sorted_tuple_set_orbit(diag.group, points)
    }
    assert weights == {cert["constant"]}
    return diag


def test_criterion_1_a5_diagonal_witness(capsys):
    started = time.perf_counter()
    cert = _cli_witness(capsys, "A5", "A4", "V4")
    assert sum(cert["multiset"].values()) == 60
    diag = _independent_orbit_check("A5", cert)
    assert diag.group.order() == 14400
    assert diag.group.degree == 60
    _finish(1, started, 5.0, "A5 two-sided witness, |J| = 60, full orbit re-checked")


def test_criterion_2_psl27_diagonal_witness(capsys):
    started = time.perf_counter()
    cert = _cli_witness(capsys, "PSL(2,7)", "F21", "C7")
    assert sum(cert["multiset"].values()) == 168
    _independent_orbit_check("PSL(2,7)", cert)
    _finish(2, started, 30.0, "PSL(2,7) witness from the order-21 normalizer, |J| = 168")


def test_criterion_3_a7_on_three_subsets():
    started = time.perf_counter()
    table = catalog.load_group_table("A7")
    a = catalog.resolve_subgroup("A7", "stab3")
    b = catalog.resolve_subgroup("A7", "stab3_even")
    space = coset_space(table, a)
    assert len(space) == 35
    assert len(orbits_on_cosets(space, a)) == 4
    assert len(orbits_on_cosets(space, b)) == 4
    assert cauchy_frobenius_count(table, a, a) == 4
    assert cauchy_frobenius_count(table, a, b) == 4
    assert orbit_count_pair(table, a, b) == (4, 4)
    assert supplement_property(table, a, b).holds
    threes = catalog.load_entry("A7_3sets").group
    assert threes.degree == 35
    assert threes.is_transitive()
    assert point_stabilizer_group(threes, 0).order() == len(a)
    _finish(3, started, 5.0, "A7 on 35 triples: counts (4,4) both ways, supplement holds")


def _aut_conjugates_are_all_inner(table, auts, a_set):
    reps = coset_space(table, a_set).representatives
    for rep in auts.coset_representatives:
        if rep.is_identity:
            continue
        image = rep.apply_to_set(a_set)
        if not any(conjugate_subgroup(table, a_set, t) == image for t in reps):
            return False
    return True


def test_criterion_4_scope_agreement_across_catalog():
    started = time.perf_counter()
    checked = 0
    for name in catalog.catalog_names():
        entry = catalog.load_entry(name)
        if not entry.supplement_pairs:
            continue
        table = catalog.load_group_table(name)
        auts = catalog.load_automorphisms(name)
        for a_label, b_label in entry.supplement_pairs:
            a = catalog.resolve_subgroup(name, a_label)
            b = catalog.resolve_subgroup(name, b_label)
            if not _aut_conjugates_are_all_inner(table, auts, a):
                continue
            over_t = supplement_property(table, a, b, scope="T")
            over_aut = supplement_property(table, a, b, scope="Aut", auts=auts)
            assert over_t.holds == over_aut.holds, (name, a_label, b_label)
            checked += 1
    # today every recorded pair passes the conjugacy gate
    assert checked == 14
    _finish(4, started, 120.0, f"{checked} subgroup pairs: T and Aut scopes agree")


def test_criterion_5_a5_character_search_pipeline():
    started = time.perf_counter()
    table = catalog.load_group_table("A5")
    auts = catalog.load_automorphisms("A5")
    ct = dixon_character_table(table)
    found = character_triple_search(table, ct, class_orbit_partition(table, auts))
    assert len(found) == 1
    names = table.class_names()
    spec = found[0]
    assert names[spec.r_class] == "3A"
    assert {names[spec.s1_class], names[spec.s2_class]} == {"5A", "5B"}
    witness = validate_character_witness(DiagonalGroup(table, auts), spec)
    assert witness.constant == 20
    assert len(witness.points) == 20
    recheck_witness(witness)
    _finish(5, started, 10.0, "A5 search gives (3A, {5A,5B}); witness constant 20")


def test_criterion_6_character_table_correctness():
    started = time.perf_counter()
    for name in ("A5", "PSL(2,7)"):
        table = catalog.load_group_table(name)
        ct = dixon_character_table(table)
        assert row_orthogonality_holds(ct)
        assert column_orthogonality_holds(ct)
        assert sum(d * d for d in ct.degrees) == ct.group_order
        k = ct.num_classes
        triples = [(a, b, c) for a in range(k) for b in range(k) for c in range(k)]
        assert class_algebra_consistent(table, ct, triples)
    _finish(6, started, 30.0, "A5 and PSL(2,7): orthogonality and all class triples exact")


def test_criterion_7_m11_index_eleven_row():
    started = time.perf_counter()
    table = catalog.load_group_table("M11")
    a = catalog.resolve_subgroup("M11", "M10")
    b = catalog.resolve_subgroup("M11", "A6")
    assert len(a) == 720
    assert len(b) == 360
    space = coset_space(table, a)
    assert len(space) == 11
    assert len(orbits_on_cosets(space, a)) == 2
    assert cauchy_frobenius_count(table, a, a) == 2
    assert cauchy_frobenius_count(table, a, b) == 2
    assert orbit_count_pair(table, a, b) == (2, 2)
    assert supplement_property(table, a, b).holds
    _finish(7, started, 120.0, "M11 with its index-11 subgroup: counts (2,2), supplement holds")


def test_criterion_8_two_point_stabilizer_screen():
    started = time.perf_counter()
    t5 = catalog.load_group_table("A5")
    assert two_point_stabilizer_trivial(t5, catalog.resolve_subgroup("A5", "C5")) is not None
    assert two_point_stabilizer_trivial(t5, catalog.resolve_subgroup("A5", "A4")) is None
    t7 = catalog.load_group_table("PSL(2,7)")
    assert two_point_stabilizer_trivial(t7, catalog.resolve_subgroup("PSL(2,7)", "C7")) is not None
    # wherever a trivial two-point stabilizer exists, no proper B supplements
    screened = 0
    for name in catalog.catalog_names():
        entry = catalog.load_entry(name)
        if not entry.two_point_labels:
            continue
        table = catalog.load_group_table(name)
        for a_label in entry.two_point_labels:
            a = catalog.resolve_subgroup(name, a_label)
            if two_point_stabilizer_trivial(table, a) is None:
                continue
            for b_label in [*sorted(entry.subgroups), "1"]:
                b = catalog.resolve_subgroup(name, b_label)
                if not b < a:
                    continue
                assert not supplement_property(table, a, b).holds, (name, a_label, b_label)
                screened += 1
    assert screened >= 2
    _finish(8, started, 60.0, f"base-size-two cases never supplement ({screened} checked)")


DIAGONAL_RUNS = [
    ("A5", "A4", "V4"),
    ("A5", "D10", "C5"),
    ("A6", "F36", "E9"),
    ("PSL(2,7)", "F21", "C7"),
    ("PSL(3,2)", "F21", "C7"),
    ("PSL(2,8)", "F56", "E8"),
    ("PSL(2,11)", "F55", "C11"),
    ("PSL(2,13)", "F78", "C13"),
]


def test_criterion_9_cross_validation_property_suite():
    started = time.perf_counter()
    runs = 0

    # every catalog entry loads and validates
    for name in catalog.catalog_names():
        catalog.validate_entry(catalog.load_entry(name))
        runs += 1

    # every two-sided witness the builder produces re-passes the verifier;
    # the A5 flagship case is swept over all 14400 group elements
    for name, a_label, b_label in DIAGONAL_RUNS:
        table = catalog.load_group_table(name)
        w = diagonal_witness(
            table,
            catalog.load_automorphisms(name),
            catalog.resolve_subgroup(name, a_label),
            catalog.resolve_subgroup(name, b_label),
        )
        assert isinstance(w, Witness)
        sweep = 20_000 if (name, a_label) == ("A5", "A4") else None
        recheck_witness(w, sweep_cap=sweep)
        runs += 1

    # witnesses found through the character route
    for name in ("A5", "PSL(2,7)", "A6"):
        table = catalog.load_group_table(name)
        auts = catalog.load_automorphisms(name)
        ct = dixon_character_table(table)
        diag = DiagonalGroup(table, auts)
        for spec in character_triple_search(table, ct, class_orbit_partition(table, auts)):
            w = validate_character_witness(diag, spec)
            recheck_witness(w)
            runs += 1

    # refutations carry counterexamples that re-check
    for name in ("A5", "A7"):
        table = catalog.load_group_table(name)
        entry = catalog.load_entry(name)
        a_label, b_label = entry.supplement_pairs[0]
        a_set = catalog.resolve_subgroup(name, a_label)
        b_set = catalog.resolve_subgroup(name, b_label)
        ref = witness_from_subgroup_pair(a_set, b_set, 0, group_label=name)
        assert isinstance(ref, Refutation)
        assert ref.violation == "k-too-small"
        recheck_refutation(ref)
        # the recorded k really is the orbit ratio in the natural action
        a_orbit = naive_orbit([table.elements[g] for g in a_set], 0)
        b_orbit = naive_orbit([table.elements[g] for g in b_set], 0)
        assert ref.points == frozenset(a_orbit)
        assert ref.counterexample["k"] == len(a_orbit) // len(b_orbit)
        runs += 1

    for name in ("A5_3sets", "A6_3sets", "A7_3sets", "A8_3sets", "A9_3sets"):
        group = catalog.load_entry(name).group
        ref = verify_witness(group, {0, 1}, Multiset.indicator([0, 1], group.degree), group_label=name)
        assert isinstance(ref, Refutation)
        recheck_refutation(ref, group)
        runs += 1
        ref = verify_witness(group, set(range(group.degree)), Multiset.indicator([0, 1], group.degree))
        assert ref.violation == "set-trivial"
        recheck_refutation(ref, group)
        runs += 1
        ref = verify_witness(group, {0, 1}, Multiset.uniform(group.degree, 2))
        assert ref.violation == "multiset-trivial"
        recheck_refutation(ref, group)
        runs += 1

    _finish(9, started, 600.0, f"{runs} catalog runs independently re-checked")


def test_criterion_10_large_character_tables():
    """The Dixon tables of A9 and M12, timed once their group tables and
    classes are loaded; each table runs its own orthogonality self-checks."""
    loaded = {name: catalog.load_group_table(name) for name in ("A9", "M12")}
    for table in loaded.values():
        table.conjugacy_classes()
    started = time.perf_counter()
    for name, table in loaded.items():
        ct = dixon_character_table(table)
        assert ct.num_classes == {"A9": 18, "M12": 15}[name]
        assert sum(d * d for d in ct.degrees) == ct.group_order == len(table)
    _finish(10, started, 5.0, "A9 (18 classes) and M12 (15 classes) Dixon tables, self-checked")

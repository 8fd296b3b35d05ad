"""Built-in group registry, subgroup recipes, and external JSON entries."""

import dataclasses
import json
from itertools import chain

import pytest

from helpers import point_stabilizer_group, sylow_normalizer
from spreadcheck import catalog, tables
from spreadcheck.errors import InvalidSubgroup, VerificationInconsistency
from spreadcheck.perm import Permutation
from spreadcheck.tables import validate_subgroup

EXPECTED_NAMES = [
    "A5",
    "A5_3sets",
    "A6",
    "A6_3sets",
    "A7",
    "A7_3sets",
    "A8",
    "A8_3sets",
    "A9",
    "A9_3sets",
    "M11",
    "M12",
    "PSL(2,11)",
    "PSL(2,13)",
    "PSL(2,7)",
    "PSL(2,8)",
    "PSL(3,2)",
]

GROUP_ORDERS = {
    "A5": 60,
    "A6": 360,
    "A7": 2520,
    "A8": 20160,
    "A9": 181440,
    "PSL(2,7)": 168,
    "PSL(2,8)": 504,
    "PSL(2,11)": 660,
    "PSL(2,13)": 1092,
    "PSL(3,2)": 168,
    "M11": 7920,
    "M12": 95040,
}

SUBGROUP_ORDERS = {
    "A5": {"A4": 12, "V4": 4, "D10": 10, "C5": 5, "1": 1},
    "A6": {"F36": 36, "E9": 9},
    "A7": {"stab3": 72, "stab3_even": 36},
    "A8": {"stab3": 360, "stab3_even": 180},
    "A9": {"stab3": 2160, "stab3_even": 1080},
    "PSL(2,7)": {"F21": 21, "C7": 7},
    "PSL(3,2)": {"F21": 21, "C7": 7},
    "PSL(2,8)": {"F56": 56, "E8": 8},
    "PSL(2,11)": {"F55": 55, "C11": 11},
    "PSL(2,13)": {"F78": 78, "C13": 13},
    "M11": {"M10": 720, "A6": 360},
    "M12": {"2xS5": 240, "S5": 120},
}

THREE_SET_DEGREES = {
    "A5_3sets": 10,
    "A6_3sets": 20,
    "A7_3sets": 35,
    "A8_3sets": 56,
    "A9_3sets": 84,
}


def test_catalog_names():
    assert catalog.catalog_names() == EXPECTED_NAMES


def test_every_entry_validates():
    for name in catalog.catalog_names():
        catalog.validate_entry(catalog.load_entry(name))


@pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
def test_group_orders(name):
    entry = catalog.load_entry(name)
    assert entry.known_order == GROUP_ORDERS[name]
    group = entry.group
    assert group.order() == GROUP_ORDERS[name]
    assert group.degree == entry.degree
    assert group.is_transitive()
    assert len(catalog.load_group_table(name)) == GROUP_ORDERS[name]


@pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
def test_class_ids_are_bytes(name):
    """Every catalog group has at most 256 classes (a _3sets entry has its
    base group's), so the table keeps one byte per class id."""
    table = catalog.load_group_table(name)
    table.conjugacy_classes()
    assert type(table._class_split[1]) is bytes and len(table._class_split[1]) == len(table)


@pytest.mark.parametrize("name", sorted(SUBGROUP_ORDERS))
def test_subgroup_orders(name):
    table = catalog.load_group_table(name)
    for label, order in SUBGROUP_ORDERS[name].items():
        sub = catalog.resolve_subgroup(name, label)
        assert len(sub) == order
        # a plain copy, so the members are closed again rather than passed through
        assert validate_subgroup(table, frozenset(sub)) == sub


def test_supplement_pairs_are_normal_inclusions():
    for name in sorted(GROUP_ORDERS):
        table = catalog.load_group_table(name)
        for a_label, b_label in catalog.load_entry(name).supplement_pairs:
            a = catalog.resolve_subgroup(name, a_label)
            b = catalog.resolve_subgroup(name, b_label)
            assert b < a
            for g in a.gens:
                assert frozenset(table.conjugate(x, g) for x in b) == b


def test_two_point_labels():
    assert catalog.load_entry("A5").two_point_labels == ("C5", "A4")
    assert catalog.load_entry("PSL(2,7)").two_point_labels == ("C7",)


@pytest.mark.parametrize("name", sorted(THREE_SET_DEGREES))
def test_three_subset_actions(name):
    entry = catalog.load_entry(name)
    assert entry.degree == THREE_SET_DEGREES[name]
    group = entry.group
    assert group.degree == THREE_SET_DEGREES[name]
    base = name[: -len("_3sets")]
    assert group.order() == GROUP_ORDERS[base]
    assert group.is_transitive()
    assert entry.supplement_pairs == ()


def test_three_subset_stabilizer_order():
    group = catalog.load_entry("A7_3sets").group
    assert point_stabilizer_group(group, 0).order() == 2520 // 35


def test_unknown_names_and_labels():
    with pytest.raises(ValueError):
        catalog.load_entry("E8(q)")
    with pytest.raises(ValueError):
        catalog.resolve_subgroup("A5", "B7")


def test_trivial_subgroup_label():
    assert catalog.resolve_subgroup("A5", "1") == frozenset({0})


def test_entry_owns_its_derived_objects_until_caches_are_cleared():
    """A loaded built-in entry is a copy: what it derives stays on it, and
    the entry it was copied from is never handed out."""
    entry = catalog.load_entry("A5")
    table = catalog.load_group_table("A5")
    assert table is entry.table
    assert catalog.load_automorphisms("A5") is entry.automorphisms
    assert catalog.resolve_subgroup("A5", "A4") is entry.subgroup("A4")
    assert "table" not in vars(catalog._BUILTIN["A5"])
    # the benchmark clears the caches before each timed set-up: a cold load
    catalog.clear_caches()
    assert catalog.load_group_table("A5") is not table
    fresh = catalog.load_entry("A5")
    assert fresh is not entry and fresh == entry
    assert fresh._resolved == {}


def test_sylow_recipes_grow_each_sylow_subgroup_once(monkeypatch):
    """A sylow recipe and the normalizer_of recipe that names it by label
    share one growth, and no Sylow growth or normalizer builds an array over
    all of T.  Set up as the benchmark's witnesses workload does, resolving
    the fresh entries' recipes makes no tables.compose_images call over |T|
    points: a normalizer conjugates a subgroup's members through R_g and
    inverse, so its gathers run over |H| points.  Each of the 8 normalizers
    equals N_T(P) of the Sylow subgroup its prime grows."""
    calls = {"whole_table": [], "growths": []}
    compose_images, grow = tables.compose_images, catalog.sylow_subgroup
    order = {"T": float("inf")}  # |T| while an entry resolves its recipes

    def counting_compose(p, q):
        if len(p) >= order["T"]:
            calls["whole_table"].append(len(p))
        return compose_images(p, q)

    def counting_growth(table, p, *args):
        calls["growths"].append((table.name, p))
        return grow(table, p, *args)

    monkeypatch.setattr(tables, "compose_images", counting_compose)
    monkeypatch.setattr(catalog, "sylow_subgroup", counting_growth)
    entries = [dataclasses.replace(catalog._BUILTIN[name]) for name in (
        "A5", "A6", "A7", "PSL(2,7)", "PSL(3,2)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)",
        "A5_3sets", "A6_3sets", "A7_3sets")]
    for entry in entries:
        entry.table.conjugacy_classes()
        if entry.name != "A7" and not entry.name.endswith("_3sets"):
            entry.automorphisms
        order["T"] = len(entry.table)
        for label in entry.subgroups:
            entry.subgroup(label)
        order["T"] = float("inf")
    assert calls["whole_table"] == []
    assert sorted(calls["growths"]) == [("A5", 2), ("A5", 5), ("A6", 3), ("PSL(2,11)", 11), ("PSL(2,13)", 13),
                                        ("PSL(2,7)", 7), ("PSL(2,8)", 2), ("PSL(3,2)", 7)]
    monkeypatch.undo()
    normalizers = []
    for entry in entries:
        for label, (kind, arg, *_) in entry.subgroups.items():
            if kind == "sylow":
                assert entry.subgroup(label) == tables.sylow_subgroup(entry.table, arg)
            elif kind == "normalizer_of":
                sylow, p = entry.subgroups[arg]
                assert sylow == "sylow"
                assert entry.subgroup(label) == sylow_normalizer(entry.table, p)
                normalizers.append((entry.name, label))
    assert sorted(normalizers) == [("A5", "A4"), ("A5", "D10"), ("A6", "F36"), ("PSL(2,11)", "F55"),
                                   ("PSL(2,13)", "F78"), ("PSL(2,7)", "F21"), ("PSL(2,8)", "F56"),
                                   ("PSL(3,2)", "F21")]


@pytest.mark.parametrize("name", catalog.catalog_names())
def test_every_listed_label_resolves(name):
    """Each label of a built-in entry's supplement pairs and two-point labels
    names a subgroup: "1" or one of its recipes."""
    entry = catalog.load_entry(name)
    for label in set(chain(*entry.supplement_pairs, entry.two_point_labels)):
        assert label == "1" or label in entry.subgroups
        assert entry.subgroup(label).table is entry.table


def test_supplied_aut_images_must_lie_in_group():
    entry = catalog.load_entry("A7")
    assert entry.aut_images is not None
    bad = dataclasses.replace(
        entry, aut_images=((Permutation.from_cycles(7, [[0, 1]]),),)
    )
    with pytest.raises(InvalidSubgroup):
        bad.automorphisms


D10_JSON = {
    "name": "D10ext",
    "degree": 5,
    "generators": [[[0, 1, 2, 3, 4]], [[1, 4], [2, 3]]],
    "known_order": 10,
    "subgroups": {"C5": [[[0, 1, 2, 3, 4]]]},
    "supplement_pairs": [["C5", "1"]],
    "two_point_labels": [],
}


class TestExternalEntries:
    def test_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "D10ext.json"
        path.write_text(json.dumps(D10_JSON))
        entry = catalog.load_entry_file(path)
        assert entry.name == "D10ext"
        assert entry.known_order == 10
        assert entry.supplement_pairs == (("C5", "1"),)
        assert len(entry.table) == 10
        assert len(entry.subgroup("C5")) == 5
        assert entry.subgroup("1") == frozenset({0})
        with pytest.raises(ValueError):
            entry.subgroup("C2")

    def test_rejects_non_permutation_generator(self):
        bad = dict(D10_JSON, generators=[[0, 0, 1, 2, 3]])
        with pytest.raises(ValueError):
            catalog.entry_from_json(bad)

    def test_rejects_wrong_order(self):
        bad = dict(D10_JSON, known_order=11)
        with pytest.raises(VerificationInconsistency):
            catalog.entry_from_json(bad)

    def test_subgroup_generators_must_lie_in_group(self):
        data = dict(D10_JSON, subgroups=dict(D10_JSON["subgroups"], bad=[[[0, 1]]]))
        entry = catalog.entry_from_json(data)
        with pytest.raises(InvalidSubgroup):
            entry.subgroup("bad")

    @pytest.mark.parametrize("name", ["D10ext", "D10ext_3sets"])
    def test_environment_directory_and_cache_clearing(self, tmp_path, monkeypatch, name):
        """A file is found by its name, also one ending in _3sets like the
        built-in actions on 3-sets."""
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(D10_JSON, name=name)))
        monkeypatch.setenv(catalog.ENV_CATALOG_DIR, str(tmp_path))
        entry = catalog.load_entry(name)
        assert entry.known_order == 10
        assert catalog.load_entry(name) is entry
        with pytest.raises(ValueError, match="unknown catalog group 'B5_3sets'"):
            catalog.load_entry("B5_3sets")
        monkeypatch.delenv(catalog.ENV_CATALOG_DIR)
        assert catalog.load_entry(name) is entry  # still cached
        catalog.clear_caches()
        with pytest.raises(ValueError, match=f"unknown catalog group '{name}'"):
            catalog.load_entry(name)

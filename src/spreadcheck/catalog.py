"""Built-in group catalog, and the one reader of input from outside the program.

Each entry carries verified generators (the constructed order is checked
against the recorded one on every load), optional supplied automorphism
data for groups above the search cap, and named subgroup recipes so the
command line and the tests can say things like ``--A F21 --B C7``.  A recipe
derived from another subgroup (its normalizer, derived subgroup or centre-free
index-2 subgroup) names that subgroup by its label, so CatalogEntry.subgroup
resolves, checks and keeps every subgroup once.

Alternating groups also ship in a second incarnation acting on 3-element
subsets of the natural domain, with generators derived from the natural ones.
Every built-in entry is built once at import and never handed out: load_entry
gives a copy of it, caches that copy by name, and the copy keeps what it
derives (see CatalogEntry), so clear_caches forgets both.  A name outside the built-in
catalog is read from <name>.json in the SPREADCHECK_CATALOG directory, and
that file must give the same name.

Group files (entry_from_json), witness files (read_witness) and the numbers
of the command line are parsed and checked here and nowhere else: JSON types
by one exact rule (expect: a bool is no int), integers written as text by
another (integer: "01", "+1" and "1_0" are refused).  Malformed input raises
ValueError naming what is wrong, or KeyError for a missing key.
"""

from __future__ import annotations

import functools
import json
import math
import os
import reprlib
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from pathlib import Path

from .autos import (
    AutomorphismGroup,
    automorphism_group_from_supplied,
    search_automorphism_group,
)
from .errors import InvalidSubgroup, VerificationInconsistency
from .perm import Permutation, PermutationGroup
from .tables import (
    GroupTable,
    Subgroup,
    build_group_table,
    centralizer,
    close_subgroup,
    derived_subgroup,
    normalizer,
    setwise_stabilizer,
    sylow_subgroup,
    validate_subgroup,
)
from .witness import Multiset

ENV_CATALOG_DIR = "SPREADCHECK_CATALOG"


@dataclass(frozen=True)
class CatalogEntry:
    """One group and its recipes, built in or read from a file.

    The permutation group, the table, the automorphism group and each resolved
    subgroup are computed on first use and kept on the entry, so both routes
    share one path and one cache: whatever holds the entry holds them.
    """

    name: str
    degree: int
    generators: tuple[Permutation, ...]
    known_order: int
    # one tuple of generator images per supplied automorphism, or None to search
    aut_images: tuple[tuple[Permutation, ...], ...] | None = None
    subgroups: dict = field(default_factory=dict)
    supplement_pairs: tuple[tuple[str, str], ...] = ()
    two_point_labels: tuple[str, ...] = ()
    _resolved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def group(self) -> PermutationGroup:
        return PermutationGroup(list(self.generators), self.degree)

    @functools.cached_property
    def table(self) -> GroupTable:
        return build_group_table(self.group, name=self.name, known_order=self.known_order)

    @functools.cached_property
    def automorphisms(self) -> AutomorphismGroup:
        table = self.table
        if self.aut_images is None:
            return search_automorphism_group(table)
        supplied = [self.indices(images, "supplied automorphism image") for images in self.aut_images]
        return automorphism_group_from_supplied(table, supplied)

    def indices(self, perms: tuple[Permutation, ...], what: str) -> list[int]:
        """The table indices of perms; one outside the group raises
        InvalidSubgroup naming it as what."""
        try:
            return [self.table.index[bytes(p.images)] for p in perms]
        except KeyError:
            raise InvalidSubgroup(f"{what} does not lie in {self.name}") from None

    def subgroup(self, label: str) -> Subgroup:
        """The subgroup with this label, checked once against the table; the
        label "1" is the trivial subgroup."""
        if label not in self._resolved:
            if label == "1":
                members = {0}
            elif label in self.subgroups:
                members = _resolve_recipe(self, self.subgroups[label])
            else:
                raise ValueError(
                    f"group {self.name} has no subgroup labelled {label!r}; "
                    f"available: {sorted(self.subgroups)} and '1'"
                )
            self._resolved[label] = validate_subgroup(self.table, members)
        return self._resolved[label]


def _cyc(degree: int, *cycles) -> Permutation:
    return Permutation.from_cycles(degree, [list(c) for c in cycles])


def _three_subset_action(perm: Permutation) -> Permutation:
    n = len(perm.images)
    domain = list(combinations(range(n), 3))
    index = {s: i for i, s in enumerate(domain)}
    images = [index[tuple(sorted(perm(x) for x in s))] for s in domain]
    return Permutation(tuple(images))


# recipes: ("sylow", p) | ("setwise_stabilizer", pts) | ("class_centralizer", class_name)
# | ("generated", perms), and those derived from the subgroup with a label:
# ("normalizer_of", label) | ("derived_of", label) | ("index2_centerfree", label)
_BUILTIN: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    CatalogEntry(
        name="A5",
        degree=5,
        generators=(_cyc(5, (0, 1, 2, 3, 4)), _cyc(5, (2, 3, 4))),
        known_order=60,
        subgroups={
            "A4": ("normalizer_of", "V4"),
            "V4": ("sylow", 2),
            "D10": ("normalizer_of", "C5"),
            "C5": ("sylow", 5),
        },
        supplement_pairs=(("A4", "V4"), ("D10", "C5"), ("C5", "1")),
        two_point_labels=("C5", "A4"),
    ),
    CatalogEntry(
        name="A6",
        degree=6,
        generators=(_cyc(6, (0, 1, 2, 3, 4)), _cyc(6, (1, 2, 3, 4, 5))),
        known_order=360,
        subgroups={"F36": ("normalizer_of", "E9"), "E9": ("sylow", 3)},
        supplement_pairs=(("F36", "E9"),),
    ),
    CatalogEntry(
        name="A7",
        degree=7,
        generators=(_cyc(7, (0, 1, 2)), _cyc(7, (0, 1, 2, 3, 4, 5, 6))),
        known_order=2520,
        # generator images under conjugation by the transposition of the
        # first two points; that map is an automorphism but not inner
        aut_images=((_cyc(7, (0, 2, 1)), _cyc(7, (0, 2, 3, 4, 5, 6, 1))),),
        subgroups={
            "stab3": ("setwise_stabilizer", (0, 1, 2)),
            "stab3_even": ("derived_of", "stab3"),
        },
        supplement_pairs=(("stab3", "stab3_even"),),
    ),
    CatalogEntry(
        name="A8",
        degree=8,
        generators=(_cyc(8, (0, 1, 2)), _cyc(8, (1, 2, 3, 4, 5, 6, 7))),
        known_order=20160,
        aut_images=((_cyc(8, (0, 2, 1)), _cyc(8, (0, 2, 3, 4, 5, 6, 7))),),
        subgroups={
            "stab3": ("setwise_stabilizer", (0, 1, 2)),
            "stab3_even": ("derived_of", "stab3"),
        },
        supplement_pairs=(("stab3", "stab3_even"),),
    ),
    CatalogEntry(
        name="A9",
        degree=9,
        generators=(_cyc(9, (0, 1, 2)), _cyc(9, (0, 1, 2, 3, 4, 5, 6, 7, 8))),
        known_order=181440,
        aut_images=((_cyc(9, (0, 2, 1)), _cyc(9, (0, 2, 3, 4, 5, 6, 7, 8, 1))),),
        subgroups={
            "stab3": ("setwise_stabilizer", (0, 1, 2)),
            "stab3_even": ("derived_of", "stab3"),
        },
        supplement_pairs=(("stab3", "stab3_even"),),
    ),
    CatalogEntry(
        name="PSL(2,7)",
        degree=8,
        generators=(
            _cyc(8, (0, 1, 2, 3, 4, 5, 6)),
            _cyc(8, (0, 7), (1, 6), (2, 3), (4, 5)),
        ),
        known_order=168,
        subgroups={"F21": ("normalizer_of", "C7"), "C7": ("sylow", 7)},
        supplement_pairs=(("F21", "C7"),),
        two_point_labels=("C7",),
    ),
    CatalogEntry(
        name="PSL(2,8)",
        degree=9,
        generators=(
            _cyc(9, (0, 1), (2, 4), (3, 7), (5, 6)),
            _cyc(9, (1, 2, 3, 4, 5, 6, 7)),
            _cyc(9, (0, 8), (2, 7), (3, 6), (4, 5)),
        ),
        known_order=504,
        subgroups={"F56": ("normalizer_of", "E8"), "E8": ("sylow", 2)},
        supplement_pairs=(("F56", "E8"),),
    ),
    CatalogEntry(
        name="PSL(2,11)",
        degree=12,
        generators=(
            _cyc(12, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
            _cyc(12, (0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9)),
        ),
        known_order=660,
        subgroups={"F55": ("normalizer_of", "C11"), "C11": ("sylow", 11)},
        supplement_pairs=(("F55", "C11"),),
    ),
    CatalogEntry(
        name="PSL(2,13)",
        degree=14,
        generators=(
            _cyc(14, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
            _cyc(14, (0, 13), (1, 12), (2, 6), (3, 4), (7, 11), (9, 10)),
        ),
        known_order=1092,
        subgroups={"F78": ("normalizer_of", "C13"), "C13": ("sylow", 13)},
        supplement_pairs=(("F78", "C13"),),
    ),
    CatalogEntry(
        name="PSL(3,2)",
        degree=7,
        generators=(_cyc(7, (0, 1, 3, 2, 5, 6, 4)), _cyc(7, (1, 2), (5, 6))),
        known_order=168,
        subgroups={"F21": ("normalizer_of", "C7"), "C7": ("sylow", 7)},
        supplement_pairs=(("F21", "C7"),),
    ),
    CatalogEntry(
        name="M11",
        degree=11,
        generators=(
            _cyc(11, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
            _cyc(11, (2, 6, 10, 7), (3, 9, 4, 5)),
        ),
        known_order=7920,
        subgroups={"M10": ("setwise_stabilizer", (0,)), "A6": ("derived_of", "M10")},
        supplement_pairs=(("M10", "A6"),),
    ),
    CatalogEntry(
        name="M12",
        degree=12,
        generators=(
            _cyc(12, (0, 11), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6)),
            _cyc(12, (0, 1, 3, 7, 8, 6, 10, 2, 5, 11), (4, 9)),
        ),
        known_order=95040,
        subgroups={
            "2xS5": ("class_centralizer", "2A"),
            "S5": ("index2_centerfree", "2xS5"),
        },
        supplement_pairs=(("2xS5", "S5"),),
    ),
)}
# the alternating groups acting on the 3-element subsets of their natural domain
_BUILTIN.update({
    f"{base.name}_3sets": CatalogEntry(
        name=f"{base.name}_3sets",
        degree=math.comb(base.degree, 3),
        generators=tuple(map(_three_subset_action, base.generators)),
        known_order=base.known_order,
    )
    for base in [_BUILTIN[name] for name in ("A5", "A6", "A7", "A8", "A9")]
})


def catalog_names() -> list[str]:
    return sorted(_BUILTIN)


def load_entry_file(path: str | Path) -> CatalogEntry:
    return entry_from_json(read_json(path))


def validate_entry(entry: CatalogEntry) -> None:
    group = entry.group
    if group.order() != entry.known_order:
        raise VerificationInconsistency(
            f"catalog entry {entry.name}: generated order {group.order()} "
            f"!= recorded order {entry.known_order}"
        )


@functools.lru_cache(maxsize=None)
def load_entry(name: str) -> CatalogEntry:
    if name in _BUILTIN:
        entry = replace(_BUILTIN[name])  # a fresh copy: nothing derived, nothing resolved
        validate_entry(entry)
        return entry
    directory = os.environ.get(ENV_CATALOG_DIR)
    candidate = Path(directory) / f"{name}.json" if directory else None
    if candidate is None or not candidate.exists():
        raise ValueError(f"unknown catalog group {name!r}")
    entry = load_entry_file(candidate)
    if entry.name != name:
        raise ValueError(f"catalog file {candidate.name} names group {entry.name!r}")
    return entry


def load_group_table(name: str) -> GroupTable:
    return load_entry(name).table


def load_automorphisms(name: str) -> AutomorphismGroup:
    return load_entry(name).automorphisms


def resolve_subgroup(name: str, label: str) -> Subgroup:
    return load_entry(name).subgroup(label)


def _resolve_recipe(entry: CatalogEntry, recipe: tuple) -> frozenset[int]:
    table = entry.table
    kind = recipe[0]
    if kind == "sylow":
        return sylow_subgroup(table, recipe[1])
    if kind == "normalizer_of":
        return normalizer(table, entry.subgroup(recipe[1]))
    if kind == "setwise_stabilizer":
        return setwise_stabilizer(table, recipe[1])
    if kind == "derived_of":
        return derived_subgroup(table, entry.subgroup(recipe[1]))
    if kind == "class_centralizer":
        cid = table.class_by_name(recipe[1])
        rep = table.conjugacy_classes()[cid].representative
        return centralizer(table, rep)
    if kind == "index2_centerfree":
        return _index2_centerfree(table, entry.subgroup(recipe[1]))
    if kind == "generated":
        return close_subgroup(table, set(entry.indices(recipe[1], "subgroup generator")))
    raise ValueError(f"unknown subgroup recipe {recipe!r}")


def _index2_centerfree(table: GroupTable, parent: Subgroup) -> Subgroup:
    """First subgroup of index 2 in parent (by element order) whose centre,
    within itself, is trivial."""
    der = derived_subgroup(table, parent)
    for x in sorted(parent - der):
        h = close_subgroup(table, der | {x})
        # centre-free: no member but the identity 0 commutes with every kept generator
        if 2 * len(h) == len(parent) and not any(
            z and all(table.multiply(z, g) == table.multiply(g, z) for g in h.gens) for z in h
        ):
            return h
    raise InvalidSubgroup("no centre-free index-2 subgroup found")


def clear_caches() -> None:
    """Forget every loaded entry, and with it every table, automorphism group
    and subgroup derived from one."""
    load_entry.cache_clear()


# --- the input boundary -------------------------------------------------------

GROUP_KEYS = ("name", "degree", "generators", "known_order", "aut_generators", "subgroups",
              "supplement_pairs", "two_point_labels")
_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", str: "a JSON string", int: "a JSON integer"}


def expect(value, kind: type, what: str, items: type | None = None):
    """value, when its type is kind and, given items, the type of each of its
    members is items; types match exactly, so a bool is no int.  Anything else
    raises ValueError naming what."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    if items and any(type(item) is not items for item in value):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]} of {_JSON_KINDS[items][2:]}s, "
                         f"got {reprlib.repr(value)}")
    return value


def integer(text: str, what: str) -> int:
    """text as an integer in canonical decimal, as str(int) writes it: "01",
    "+1", " 1", "1_0", "a", "" and more digits than int() reads
    (sys.get_int_max_str_digits) raise ValueError naming what."""
    digits = text.removeprefix("-")
    limit = sys.get_int_max_str_digits() or len(digits)  # 0 means no limit
    value = int(text) if text.isascii() and digits.isdigit() and len(digits) <= limit else None
    if value is None or str(value) != text:
        raise ValueError(f"{what} {reprlib.repr(text)} is not a canonical integer")
    return value


def decimal(text: str) -> int:
    """An integer in canonical decimal; argparse exits 2 on "01", "+1", " 1", "1_0"."""
    return integer(text, "decimal")


def nonnegative(text: str) -> int:
    """A canonical decimal that is not negative, a point of an unbounded
    range; argparse exits 2 on "-1" too."""
    return parse_point(text, math.inf, "nonnegative")


def parse_point(text: str, degree: int, what: str) -> int:
    """A point in canonical decimal and in 0..degree-1, else ValueError naming it."""
    point = integer(text, what)
    if not 0 <= point < degree:
        raise ValueError(f"{what} {reprlib.repr(text)} outside 0..{degree - 1}")
    return point


def parse_permutation(data, degree: int) -> Permutation:
    """JSON permutation data: a list of cycles, or an image list of length
    degree, every point a JSON integer; [] is the identity.  Anything else, a
    mix of cycles and images included, raises ValueError."""
    if all(type(cycle) is list for cycle in expect(data, list, "permutation")):
        return Permutation.from_cycles(degree, [expect(cycle, list, "cycle", int) for cycle in data])
    if len(expect(data, list, "image list", int)) != degree:
        raise ValueError(f"image list has length {len(data)}, expected {degree}")
    return Permutation(data)


def entry_from_json(data) -> CatalogEntry:
    """The entry of a group file, a JSON object with the keys GROUP_KEYS, of
    which subgroups, supplement_pairs, two_point_labels and aut_generators
    may be left out.  The label "1" always means the trivial subgroup: a file
    may not define it, and every label of supplement_pairs and
    two_point_labels is "1" or a key of subgroups.  Malformed data or an
    unknown key raises ValueError, a missing key KeyError, and an order other
    than known_order VerificationInconsistency."""
    unknown = [key for key in expect(data, dict, "group file") if key not in GROUP_KEYS]
    if unknown:
        raise ValueError(f"unknown group file key {unknown[0]!r}; known keys: {', '.join(GROUP_KEYS)}")
    name = expect(data["name"], str, "'name'")
    degree, known_order = (expect(data[key], int, repr(key)) for key in ("degree", "known_order"))
    if min(degree, known_order) < 0:
        raise ValueError(f"'degree' and 'known_order' must be nonnegative, got {degree} and {known_order}")

    def permutations(value, what: str) -> tuple[Permutation, ...]:
        return tuple(parse_permutation(g, degree) for g in expect(value, list, what))

    generators = permutations(data["generators"], "'generators'")
    aut = expect(data["aut_generators"], list, "'aut_generators'") if "aut_generators" in data else None
    if aut == []:
        raise ValueError("'aut_generators' must list at least one automorphism; leave it out to search")
    aut_images = None if aut is None else tuple(permutations(images, "an 'aut_generators' entry") for images in aut)
    subgroups = {label: ("generated", permutations(gens, f"subgroup {label!r}"))
                 for label, gens in expect(data.get("subgroups", {}), dict, "'subgroups'").items()}
    pairs = [tuple(expect(pair, list, "a 'supplement_pairs' entry", str))
             for pair in expect(data.get("supplement_pairs", []), list, "'supplement_pairs'")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"each 'supplement_pairs' entry must be a list of two labels, got {pairs!r}")
    if "1" in subgroups:
        raise ValueError("subgroup label '1' is reserved for the trivial subgroup")
    two_point = tuple(expect(data.get("two_point_labels", []), list, "'two_point_labels'", str))
    missing = [label for label in chain(*pairs, two_point) if label != "1" and label not in subgroups]
    if missing:
        raise ValueError(f"label {missing[0]!r} names no subgroup; available: {sorted(subgroups)} and '1'")
    entry = CatalogEntry(
        name=name,
        degree=degree,
        generators=generators,
        known_order=known_order,
        aut_images=aut_images,
        subgroups=subgroups,
        supplement_pairs=tuple(pairs),
        two_point_labels=two_point,
    )
    validate_entry(entry)
    return entry


def read_witness(path: str | Path, n: int) -> tuple[frozenset[int], Multiset]:
    """The point set X and multiset J of a witness file over n points.  Its
    "set" is a list of distinct JSON integers in 0..n-1, and its "multiset"
    maps each point, written as Multiset.to_json writes it (canonical
    decimal, in 0..n-1), to a JSON integer.  A point out of range, in either,
    raises ValueError naming it.  Other keys, such as a certificate's
    "constant", "group" and "verified", are not read."""
    data = expect(read_json(path), dict, "witness file")
    points = distinct(expect(data["set"], list, "witness 'set'", int), "witness 'set' point")
    if outside := [point for point in data["set"] if not 0 <= point < n]:
        raise ValueError(f"witness 'set' point {reprlib.repr(outside[0])} outside 0..{n - 1}")
    counts = [0] * n
    for key, mult in expect(data["multiset"], dict, "multiset").items():
        counts[parse_point(key, n, "multiset point")] = expect(mult, int, f"multiplicity of point {key!r}")
    return points, Multiset(tuple(counts))


def distinct(items: list, what: str) -> frozenset:
    """The items as a set; a repeated item raises ValueError naming it."""
    repeated = [item for item, count in Counter(items).items() if count > 1]
    if repeated:
        raise ValueError(f"repeated {what} {repeated[0]!r}")
    return frozenset(items)


def read_json(path: str | Path):
    """The JSON document in a group or witness file; a repeated key raises
    ValueError, where json.load would keep only its last value, and so does
    nesting too deep for json.load, where it would raise RecursionError."""
    def unique_keys(pairs: list) -> dict:
        distinct([key for key, _ in pairs], "JSON key")
        return dict(pairs)
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read") from None

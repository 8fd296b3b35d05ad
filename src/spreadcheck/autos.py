"""Automorphisms of a tabled group, found by search or built from images.

An automorphism is stored as a permutation of element indices.  The identity
is the values of table.index in order, the table's own int objects, and the
search, the closure and diag(T) read every other mapping from table arrays or
compose it from such mappings, so a kept mapping adds |T| pointers and no
ints.  The central object is the list of coset representatives modulo inner
automorphisms: the identity first, then one representative per nontrivial
coset.  For a group with trivial center that list determines the
automorphism group completely (the full group is the union of
rep-then-conjugation maps), and its length times the group order is the
automorphism group order.

An automorphism is pinned down by the images (x, y) of a generating pair
(a, b), and conjugation by t moves them jointly to (x^t, y^t).  _InnerCosets,
the one bookkeeping of both routes, moves x to its class representative r by
the conjugator the class walk recorded, and marks a coset's |C(r)| pairs
(r, y^c), c in the centralizer of r, when it keeps the coset's first
automorphism; nothing of size |T| is stored.  The closure,
close_modulo_inner, offers it each product of a representative with a
supplied automorphism; diag(T) uses the same closure, with a flag for
inversion, to count its point stabiliser modulo Inn.  The search tries x
among class representatives only, skips marked pairs, and pre-filters by
element order, class size and the orders of a few fixed words in the pair.
Cayley walks read x g from arrays R_g made once per route, and the image side
is one translate per edge by the image generator's table, so a failing
candidate stops at its first edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded
from .perm import compose_images, inverse_images
from .tables import GroupTable, centralizer

DEFAULT_AUT_CAP = 10**4


@dataclass(frozen=True)
class Automorphism:
    """A bijection of element indices respecting multiplication."""

    table: GroupTable
    mapping: tuple[int, ...]

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        # self acts first, matching the permutation convention in this package
        if other.table is not self.table:
            raise ValueError("automorphisms belong to different tables")
        return Automorphism(self.table, compose_images(self.mapping, other.mapping))

    def inverse(self) -> "Automorphism":
        return Automorphism(self.table, inverse_images(self.mapping))

    @property
    def is_identity(self) -> bool:
        """Whether it fixes every table generator, which pins an automorphism down."""
        return all(self.mapping[g] == g for g in self.table.generator_indices)

    def apply_to_set(self, subset) -> frozenset[int]:
        return frozenset(compose_images(subset, self.mapping))


def identity_automorphism(table: GroupTable) -> Automorphism:
    """The identity, mapped onto the table's own index objects: the BFS set
    table.index's values in index order, so they are 0, 1, 2, ... already."""
    return Automorphism(table, tuple(table.index.values()))


def center(table: GroupTable) -> frozenset[int]:
    """The members of the conjugacy classes of size 1."""
    return frozenset(c.representative for c in table.conjugacy_classes() if c.size == 1)


def _extend_images(table: GroupTable, rights: Sequence, images: Sequence[int]) -> Automorphism | None:
    """The automorphism sending the g_k with rights[k] = R_(g_k) to images[k],
    or None.  One Cayley walk from the identity: a new vertex x g, read from
    the array, takes the image phi(x) phi(g), and every other edge must satisfy
    phi(x g) = phi(x) phi(g), so the walk stops at the first edge that fails.
    A map that passes every edge and reaches every element is a homomorphism
    of T, and an automorphism exactly when its kernel is trivial: only the
    identity maps to the identity.
    """
    n = len(table)
    bytes_of, index = table.images, table.index
    image_tables = [table.translate_table(mg) for mg in images]
    mapping = [-1] * n
    mapping[0] = 0
    order = [0]
    for x in order:  # grows while it is walked
        mx = bytes_of[mapping[x]]
        for right, t in zip(rights, image_tables):
            y, my = right[x], index[mx.translate(t)]
            if mapping[y] < 0:
                mapping[y] = my
                order.append(y)
            elif mapping[y] != my:
                return None
    if len(order) < n or mapping.count(0) != 1:
        return None
    return Automorphism(table, tuple(mapping))


def automorphism_from_generator_images(table: GroupTable, images: Sequence[int]) -> Automorphism:
    """The automorphism sending table generator k to images[k]; raises if none exists."""
    gens = table.generator_indices
    if len(images) != len(gens):
        raise ValueError(f"need {len(gens)} generator images, got {len(images)}")
    aut = _extend_images(table, [table.right_multiplication(g) for g in gens], images)
    if aut is None:
        raise ValueError("generator images do not define an automorphism")
    return aut


def as_automorphism(table: GroupTable, rights: Sequence, mapping: tuple[int, ...]) -> Automorphism | None:
    """The map sigma of element indices as an Automorphism, or None.  sigma
    must take |T| indices into range and satisfy sigma R_g = R_sigma(g) sigma,
    i.e. sigma(x g) = sigma(x) sigma(g), for each table generator g_k,
    compared as whole arrays with R_(g_k) = rights[k].  That makes it a
    homomorphism, and a bijection exactly when only the identity maps to 0."""
    n, right = len(table), table.right_multiplication
    if len(mapping) == n and 0 <= min(mapping) and max(mapping) < n and all(
        compose_images(r, mapping) == compose_images(mapping, right(mapping[g]))
        for g, r in zip(table.generator_indices, rights)
    ) and mapping.count(0) == 1:
        return Automorphism(table, tuple(mapping))
    return None


@dataclass(frozen=True)
class AutomorphismGroup:
    """Aut(T) for a centerless T, as coset representatives modulo conjugations."""

    table: GroupTable
    coset_representatives: tuple[Automorphism, ...]

    @property
    def order(self) -> int:
        return len(self.table) * len(self.coset_representatives)

    @property
    def outer_order(self) -> int:
        return len(self.coset_representatives)

    def class_orbit(self, cid: int) -> frozenset[int]:
        """Conjugacy class ids reachable from cid under the whole automorphism
        group.  Inner automorphisms fix every class, so the coset
        representatives alone reach them all."""
        table = self.table
        rep = table.conjugacy_classes()[cid].representative
        return frozenset(table.class_of(aut.mapping[rep]) for aut in self.coset_representatives)


class _InnerCosets:
    """Coset representatives of Aut(T) modulo Inn(T), in the order kept."""

    def __init__(self, table: GroupTable):
        if center(table) != frozenset({0}):
            raise ValueError("automorphism bookkeeping here requires a trivial center")
        self.table = table
        self.a, self.b = table.generating_pair()
        self.reps: list[Automorphism] = []
        self.marked: set[tuple[int, int]] = set()

    def add(self, aut: Automorphism) -> bool:
        """Keep aut unless its coset is marked already; whether it was kept.

        The trivial center makes the conjugates of (a, b) distinct, so the
        pairs (r, y^c) marked here are exactly the coset's pairs whose first
        entry is r.
        """
        table = self.table
        x = aut.mapping[self.a]
        r = table.conjugacy_classes()[table.class_of(x)].representative
        y = table.conjugate(aut.mapping[self.b], table.to_representative(x))
        if (r, y) in self.marked:
            return False
        if len(self.reps) >= DEFAULT_AUT_CAP:
            raise CapExceeded("automorphism cosets", DEFAULT_AUT_CAP)
        self.reps.append(aut)
        self.marked.update((r, table.conjugate(y, c)) for c in centralizer(table, r))
        return True


def close_modulo_inner(
    table: GroupTable, parts: Sequence[tuple[Automorphism, int]]
) -> list[tuple[Automorphism, int]]:
    """One pair (phi, e) per coset modulo Inn(T) of the group generated by
    Inn(T) and the parts, the identity (identity, 0) first.

    A pair (phi, e) stands for phi followed by e inversions x -> x^-1.
    Inversion commutes with every automorphism, so pairs multiply as
    (psi, e)(phi, f) = (psi phi, e + f mod 2), and the cosets of each e keep
    their own _InnerCosets.  Products are walked in the order found, so the
    identity's coset comes first and the result has at most 2 |Out(T)| pairs.
    """
    cosets = (_InnerCosets(table), _InnerCosets(table))
    identity = identity_automorphism(table)
    cosets[0].add(identity)
    walked = [(identity, 0)]
    for psi, e in walked:  # grows while it is walked
        for phi, f in parts:
            product, g = psi * phi, e ^ f
            if cosets[g].add(product):
                walked.append((product, g))
    return walked


def automorphism_group_from_supplied(
    table: GroupTable, outer_generator_images: Sequence[Sequence[int]]
) -> AutomorphismGroup:
    """Close supplied outer automorphisms (as table-generator images) modulo inner ones."""
    supplied = [(automorphism_from_generator_images(table, imgs), 0) for imgs in outer_generator_images]
    return AutomorphismGroup(table, tuple(phi for phi, _ in close_modulo_inner(table, supplied)))


def search_automorphism_group(table: GroupTable) -> AutomorphismGroup:
    """Find all of Aut(T) by searching images of a generating pair."""
    cosets = _InnerCosets(table)
    cosets.add(identity_automorphism(table))
    a, b = cosets.a, cosets.b
    classes = table.conjugacy_classes()

    def profile(x: int) -> tuple[int, int]:
        return table.element_order(x), classes[table.class_of(x)].size

    def fingerprint(x: int, y: int) -> tuple[int, ...]:
        xy = table.multiply(x, y)
        xyy = table.multiply(xy, y)
        comm = table.commutator(x, y)
        return (
            table.element_order(xy),
            table.element_order(xyy),
            table.element_order(table.multiply(xy, xyy)),
            table.element_order(comm),
        )

    prof_a, prof_b = profile(a), profile(b)
    target = fingerprint(a, b)
    x_candidates = [c.representative for c in classes if profile(c.representative) == prof_a]
    y_candidates = [m for c in classes if profile(c.representative) == prof_b for m in c.members]
    rights = (table.right_multiplication(a), table.right_multiplication(b))
    for x in x_candidates:
        for y in y_candidates:
            if (x, y) in cosets.marked or fingerprint(x, y) != target:
                continue
            aut = _extend_images(table, rights, (x, y))
            if aut is not None:
                cosets.add(aut)
    return AutomorphismGroup(table, tuple(cosets.reps))

"""Automorphisms of a tabled group, found by search or built from images.

An automorphism is stored as a permutation of element indices.  The central
object is the list of coset representatives modulo inner automorphisms: the
identity first, then one representative per nontrivial coset.  For a group
with trivial center that list determines the automorphism group completely
(the full group is the union of rep-then-conjugation maps), and its length
times the group order is the automorphism group order.

The search fixes a generating pair (a, b) and looks for images (x, y).  An
automorphism is pinned down by where it sends a and b, and composing with
conjugations moves (x, y) around jointly, so the search only tries x among
conjugacy class representatives and marks off whole centralizer orbits of y
after each hit.  Candidate images are pre-filtered by element order, class
size, and the orders of a handful of fixed words in the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded
from .perm import compose_images, inverse_images
from .tables import GroupTable

DEFAULT_AUT_CAP = 10**4


@dataclass(frozen=True)
class Automorphism:
    """A bijection of element indices respecting multiplication."""

    table: GroupTable
    mapping: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        # self acts first, matching the permutation convention in this package
        if other.table is not self.table:
            raise ValueError("automorphisms belong to different tables")
        return Automorphism(self.table, compose_images(self.mapping, other.mapping))

    def inverse(self) -> "Automorphism":
        return Automorphism(self.table, inverse_images(self.mapping))

    @property
    def is_identity(self) -> bool:
        return self.mapping == tuple(range(len(self.mapping)))

    def apply_to_set(self, subset) -> frozenset[int]:
        return frozenset(compose_images(subset, self.mapping))


def identity_automorphism(table: GroupTable) -> Automorphism:
    return Automorphism(table, tuple(range(len(table))))


def inner_automorphism(table: GroupTable, t: int) -> Automorphism:
    """Conjugation x -> t^-1 x t as an automorphism."""
    return Automorphism(table, tuple(table.conjugate(x, t) for x in range(len(table))))


def center(table: GroupTable) -> frozenset[int]:
    gens = table.generator_indices
    return frozenset(
        t for t in range(len(table)) if all(table.multiply(t, g) == table.multiply(g, t) for g in gens)
    )


def _extend_images(table: GroupTable, gens: Sequence[int], images: Sequence[int]) -> Automorphism | None:
    """Build the map sending each BFS word in gens to the same word in images.

    Returns None unless the result is a genuine automorphism.  When gens do not
    generate the whole group the map cannot be bijective, so that case is
    caught by the same check.
    """
    n = len(table)
    mapping = [0] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        for k, g in enumerate(gens):
            y = table.multiply(x, g)
            if not seen[y]:
                seen[y] = True
                mapping[y] = table.multiply(mapping[x], images[k])
                order.append(y)
    if len(set(mapping)) != n:
        return None
    img = tuple(images)
    for k, g in enumerate(gens):
        mg = img[k]
        for x in range(n):
            if mapping[table.multiply(x, g)] != table.multiply(mapping[x], mg):
                return None
    return Automorphism(table, tuple(mapping))


def automorphism_from_generator_images(table: GroupTable, images: Sequence[int]) -> Automorphism:
    """The automorphism sending table generator k to images[k]; raises if none exists."""
    gens = table.generator_indices
    if len(images) != len(gens):
        raise ValueError(f"need {len(gens)} generator images, got {len(images)}")
    aut = _extend_images(table, gens, images)
    if aut is None:
        raise ValueError("generator images do not define an automorphism")
    return aut


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
        """Conjugacy class ids reachable from cid under the whole automorphism group."""
        table = self.table
        classes = table.conjugacy_classes()
        orbit = {cid}
        queue = [cid]
        i = 0
        while i < len(queue):
            c = queue[i]
            i += 1
            rep = classes[c].representative
            for aut in self.coset_representatives:
                c2 = table.class_of(aut.mapping[rep])
                if c2 not in orbit:
                    orbit.add(c2)
                    queue.append(c2)
        return frozenset(orbit)


def _require_trivial_center(table: GroupTable) -> None:
    if center(table) != frozenset({0}):
        raise ValueError("automorphism bookkeeping here requires a trivial center")


def automorphism_group_from_supplied(
    table: GroupTable, outer_generator_images: Sequence[Sequence[int]], cap: int = DEFAULT_AUT_CAP
) -> AutomorphismGroup:
    """Close supplied outer automorphisms (as table-generator images) modulo inner ones."""
    _require_trivial_center(table)
    supplied = [automorphism_from_generator_images(table, imgs) for imgs in outer_generator_images]
    a, b = table.generating_pair()
    reps = [identity_automorphism(table)]
    covered = {(table.conjugate(a, t), table.conjugate(b, t)) for t in range(len(table))}
    i = 0
    while i < len(reps):
        psi = reps[i]
        i += 1
        for phi in supplied:
            chi = psi * phi
            pair = (chi.mapping[a], chi.mapping[b])
            if pair not in covered:
                if len(reps) >= cap:
                    raise CapExceeded("automorphism coset closure", cap)
                reps.append(chi)
                for t in range(len(table)):
                    covered.add((table.conjugate(pair[0], t), table.conjugate(pair[1], t)))
    return AutomorphismGroup(table, tuple(reps))


def search_automorphism_group(table: GroupTable, cap: int = DEFAULT_AUT_CAP) -> AutomorphismGroup:
    """Find all of Aut(T) by searching images of a generating pair."""
    _require_trivial_center(table)
    n = len(table)
    a, b = table.generating_pair()
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

    reps = [identity_automorphism(table)]
    covered: set[tuple[int, int]] = set()
    x_a = classes[table.class_of(a)].representative
    # pre-cover the inner coset so the scan below only reports outer ones:
    # its pairs with first coordinate x_a are (x_a, b^(t0 c)) for c centralizing x_a
    t0 = next(t for t in range(n) if table.conjugate(a, t) == x_a)
    centr_xa = [c for c in range(n) if table.multiply(c, x_a) == table.multiply(x_a, c)]
    for c in centr_xa:
        covered.add((x_a, table.conjugate(b, table.multiply(t0, c))))

    for x in x_candidates:
        centr_x = centr_xa if x == x_a else [
            c for c in range(n) if table.multiply(c, x) == table.multiply(x, c)
        ]
        for y in y_candidates:
            if (x, y) in covered or fingerprint(x, y) != target:
                continue
            aut = _extend_images(table, (a, b), (x, y))
            if aut is None:
                continue
            if len(reps) >= cap:
                raise CapExceeded("automorphism search", cap)
            reps.append(aut)
            for c in centr_x:
                covered.add((x, table.conjugate(y, c)))
    return AutomorphismGroup(table, tuple(reps))

"""Automorphisms of a tabled group, found by search or built from images.

An automorphism phi is kept as the images of a generating set of T: the table
generators, or the generating pair, which the search and every product use.
Its graph D = <(g, phi(g))>, on 2 * degree points, projects onto T, so the map
extends to an automorphism exactly when |D| = |T| and the phi(g) generate T.
One Schreier-Sims run decides it, and D's chain, whose base points all lie in
the first block, then sifts (x^-1, 1) to (1, phi(x)), the one way to
evaluate phi off its generators.  The |T|-long mapping is walked only when
read, by diag(T) and by checks.  The central object is the list of coset
representatives modulo inner automorphisms: the identity first, then one per
nontrivial coset.  For a centerless T that list determines Aut(T), the union
of its rep-then-conjugation maps, and |Aut(T)| is its length times |T|.

An automorphism is pinned down by the images (x, y) of a generating pair
(a, b), and conjugation by t moves them jointly to (x^t, y^t).  _InnerCosets,
the one bookkeeping of both routes, moves x to its class representative r by
the conjugator x's class walk gives, and marks a coset's |C(r)| pairs
(r, y^c), c in the centralizer of r, when it keeps the coset's first
automorphism; nothing of size |T| is stored.  The closure,
close_modulo_inner, offers it each product of a representative with a
part, any automorphism as a map of indices; diag(T) uses the same closure on
its checked arrays, with a flag for inversion, to count its point stabiliser
modulo Inn.  The search tries x among class representatives only, skips
marked pairs, and pre-filters by element order, class size and the orders of
a few fixed words in the pair, compared one word at a time; a candidate's
Cayley walk over at most 256 vertices comes before its check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Sequence

from .errors import CapExceeded
from .perm import Permutation, PermutationGroup, _StabilizerChain, compose_images
from .tables import GroupTable, Subgroup, centralizer, close_subgroup

DEFAULT_AUT_CAP = 10**4


@dataclass(frozen=True, eq=False)
class Automorphism:
    """The automorphism of table's group sending gens, which generate it, to
    images; two are equal when they agree on the table generators."""

    table: GroupTable
    gens: tuple[int, ...]
    images: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Automorphism) and other.table is self.table and all(
            self(g) == other(g) for g in self.table.generator_indices)

    def __hash__(self) -> int:
        return hash(tuple(map(self, self.table.generator_indices)))

    def __call__(self, x: int) -> int:
        """phi(x), read off images, else sifted."""
        if x in self.gens:
            return self.images[self.gens.index(x)]
        if self.is_identity:
            return x
        table, n = self.table, self.table.group.degree
        residue = self._graph_chain.sift((*table.images[table.inverse[x]], *range(n, 2 * n)))
        return table.index[bytes(p - n for p in residue[n:])]

    @cached_property
    def _graph_chain(self) -> _StabilizerChain:
        images, n = self.table.images, self.table.group.degree
        return _StabilizerChain([Permutation._unchecked((*images[g], *(p + n for p in images[y])))
                                 for g, y in zip(self.gens, self.images)], 2 * n)

    @cached_property
    def mapping(self) -> tuple[int, ...]:
        """phi at every index in index order, walked when first read."""
        return tuple(_cayley_walk(self.table, list(map(self.table.right_multiplication, self.gens)), self.images))

    @property
    def is_identity(self) -> bool:
        """Whether it fixes each of its generators, which pins it down."""
        return self.images == self.gens

    def apply_to_set(self, subgroup: Subgroup) -> Subgroup:
        """The image of a Subgroup, closed from the images of its generators."""
        return close_subgroup(self.table, map(self, subgroup.gens), cap=len(subgroup))


def identity_automorphism(table: GroupTable) -> Automorphism:
    return Automorphism(table, tuple(table.generator_indices), tuple(table.generator_indices))


def center(table: GroupTable) -> frozenset[int]:
    """The members of the conjugacy classes of size 1."""
    return frozenset(c.representative for c in table.conjugacy_classes() if c.size == 1)


def _cayley_walk(table: GroupTable, rights: Sequence, images: Sequence[int], limit=None) -> list[int] | None:
    """phi sending the g_k with rights[k] = R_(g_k) to images[k], on the first
    limit vertices of a Cayley walk from 1 (-1 elsewhere), or None: a new
    vertex x g takes phi(x) phi(g), and the walk stops at the first other edge
    failing phi(x g) = phi(x) phi(g)."""
    bytes_of, index = table.images, table.index
    image_tables = [table.translate_table(mg) for mg in images]
    mapping = [0] + [-1] * (len(table) - 1)
    order = [0]
    for x in islice(order, limit):  # order grows while it is walked
        mx = bytes_of[mapping[x]]
        for right, t in zip(rights, image_tables):
            y, my = right[x], index[mx.translate(t)]
            if mapping[y] < 0:
                mapping[y] = my
                order.append(y)
            elif mapping[y] != my:
                return None
    return mapping


def _graph_automorphism(table: GroupTable, gens: Sequence[int], images: Sequence[int]) -> Automorphism | None:
    """gens -> images as an Automorphism, or None (see the module docstring)."""
    aut, n = Automorphism(table, tuple(gens), tuple(images)), len(table)
    image = PermutationGroup([table.elements[y] for y in images], table.group.degree)
    return aut if aut._graph_chain.order() == n and image.order() == n else None


def automorphism_from_generator_images(table: GroupTable, images: Sequence[int]) -> Automorphism:
    """The automorphism sending table generator k to images[k]; raises if none exists."""
    gens = table.generator_indices
    if len(images) != len(gens):
        raise ValueError(f"need {len(gens)} generator images, got {len(images)}")
    aut = _graph_automorphism(table, gens, images)
    if aut is None:
        raise ValueError("generator images do not define an automorphism")
    return aut


def is_automorphism(table: GroupTable, rights: Sequence, mapping: Sequence[int]) -> bool:
    """Whether mapping, a map sigma of element indices, is an automorphism.
    sigma must take |T| indices into range and satisfy sigma R_g = R_sigma(g)
    sigma, i.e. sigma(x g) = sigma(x) sigma(g), for each table generator g_k,
    compared as whole arrays with R_(g_k) = rights[k].  That makes it a
    homomorphism, and a bijection exactly when only the identity maps to 0."""
    n, right = len(table), table.right_multiplication
    return len(mapping) == n and 0 <= min(mapping) and max(mapping) < n and all(
        compose_images(r, mapping) == compose_images(mapping, right(mapping[g]))
        for g, r in zip(table.generator_indices, rights)
    ) and mapping.count(0) == 1


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
        return frozenset(table.class_of(aut(rep)) for aut in self.coset_representatives)


class _InnerCosets:
    """Coset representatives of Aut(T) modulo Inn(T), in the order kept."""

    def __init__(self, table: GroupTable):
        if center(table) != frozenset({0}):
            raise ValueError("automorphism bookkeeping here requires a trivial center")
        self.table = table
        self.a, self.b = table.generating_pair()
        self.reps: list[Callable[[int], int]] = []
        self.marked: set[tuple[int, int]] = set()

    def add(self, aut: Callable[[int], int]) -> bool:
        """Keep aut unless its coset is marked already; whether it was kept.

        The trivial center makes the conjugates of (a, b) distinct, so the
        pairs (r, y^c) marked here are exactly the coset's pairs whose first
        entry is r.
        """
        table = self.table
        x = aut(self.a)
        r = table.conjugacy_classes()[table.class_of(x)].representative
        y = table.conjugate(aut(self.b), table.to_representative(x))
        if (r, y) in self.marked:
            return False
        if len(self.reps) >= DEFAULT_AUT_CAP:
            raise CapExceeded("automorphism cosets", DEFAULT_AUT_CAP)
        self.reps.append(aut)
        self.marked.update((r, table.conjugate(y, c)) for c in centralizer(table, r))
        return True


def close_modulo_inner(
    table: GroupTable, parts: Sequence[tuple[Callable[[int], int], int]]
) -> list[tuple[Callable[[int], int], int]]:
    """One pair (phi, e) per coset modulo Inn(T) of the group generated by
    Inn(T) and the parts, the identity (identity, 0) first.

    A pair (phi, e) stands for phi, any automorphism as a map of indices
    (an array's __getitem__ will do), followed by e inversions x -> x^-1.
    Inversion commutes with every automorphism, so pairs multiply as
    (psi, e)(phi, f) = (psi phi, e + f mod 2): phi itself when psi = 1, else
    the Automorphism sending (a, b) to (phi(psi(a)), phi(psi(b))).  The
    cosets of each e keep their own _InnerCosets.  Products are walked in the
    order found, so the identity's coset comes first and the result has at
    most 2 |Out(T)| pairs.
    """
    cosets = (_InnerCosets(table), _InnerCosets(table))
    a, b = table.generating_pair()
    identity = identity_automorphism(table)
    cosets[0].add(identity)
    walked: list[tuple[Callable[[int], int], int]] = [(identity, 0)]
    for psi, e in walked:  # grows while it is walked
        for phi, f in parts:
            product = phi if psi is identity else Automorphism(table, (a, b), (phi(psi(a)), phi(psi(b))))
            if cosets[e ^ f].add(product):
                walked.append((product, e ^ f))
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

    def word_orders(x: int, y: int) -> Iterator[int]:
        """The orders of xy, xy^2, xy xy^2 and [x, y], one at a time."""
        xy = table.multiply(x, y)
        yield table.element_order(xy)
        xyy = table.multiply(xy, y)
        yield table.element_order(xyy)
        yield table.element_order(table.multiply(xy, xyy))
        yield table.element_order(table.commutator(x, y))

    prof_a, prof_b = profile(a), profile(b)
    target = tuple(word_orders(a, b))
    x_candidates = [c.representative for c in classes if profile(c.representative) == prof_a]
    y_candidates = [m for c in classes if profile(c.representative) == prof_b for m in c.members]
    rights = (table.right_multiplication(a), table.right_multiplication(b))
    for x in x_candidates:
        for y in y_candidates:
            if (x, y) in cosets.marked or any(o != t for o, t in zip(word_orders(x, y), target)):
                continue
            if _cayley_walk(table, rights, (x, y), limit=256) is not None and (
                    aut := _graph_automorphism(table, (a, b), (x, y))) is not None:
                cosets.add(aut)
    return AutomorphismGroup(table, tuple(cosets.reps))

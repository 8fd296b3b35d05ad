"""Permutations on {0..n-1} and permutation groups with a deterministic stabilizer chain.

Composition convention, used everywhere in this package: the product pq of
two permutations sends i to q(p(i)), i.e. the LEFT factor acts first, and
``compose_images(p, q)`` computes it on image tuples.  This matches exponent
notation for group actions: x^(pq) = (x^p)^q.

A PermutationGroup keeps its generators and gives its Schreier-Sims order,
point orbits and set orbits; it enumerates no elements (a GroupTable does).
Chain base points are the smallest moved points, and transversals and
orbits are filled by BFS in generator order, so all of it is reproducible.
Cycles, point and set orbits, the stabilizer chain's transversals, and the
normalizers and point and setwise stabilizers of tables all take one
breadth-first walk with a transversal, ``orbit_walk``.

Every composition of image tuples goes through one kernel, ``compose_images``,
which does the per-point lookups in C through ``operator.itemgetter``.  The
stabilizer chain works on bare image tuples and stores each transversal
element only as its inverse u^-1, the form that sifting divides by.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence

from .errors import CapExceeded

DEFAULT_SET_ORBIT_CAP = 10**6


class Permutation:
    """An immutable permutation of {0..n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        # Fast path for internally-built image tuples; skips validation.
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles; points outside the cycles are fixed."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ValueError(f"cycle point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise ValueError(f"point {pt} repeated across cycles")
                seen.add(pt)
            for i, pt in enumerate(cycle):
                images[pt] = cycle[(i + 1) % len(cycle)]
        return cls._unchecked(tuple(images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, each cycle (an orbit of <self>) led by its smallest point."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(len(self.images)):
            if start not in seen:
                cycle = tuple(orbit_walk({start: start}, [(self.images.__getitem__, _unchanged)]))
                seen.update(cycle)
                if len(cycle) > 1 or include_fixed:
                    out.append(cycle)
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"


def compose_images(p: Collection[int], q: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of i -> q[p[i]]: p acts first, then q.

    For any sized collection p of points this is the tuple of their images
    under q, in p's iteration order; set images and weights use that form.
    itemgetter returns a bare item for one index and needs at least one, so
    fewer than two points take the plain-tuple path.
    """
    if len(p) < 2:
        return tuple([q[i] for i in p])
    return itemgetter(*p)(q)


def inverse_images(images: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, img in enumerate(images):
        inv[img] = i
    return tuple(inv)


def orbit_walk(walk: dict, steps: Sequence[tuple[Callable, Callable]], cap: float = math.inf,
               what: str = "orbit") -> dict:
    """Extend walk, a dict from each point found so far, in order, to its
    transversal element, breadth first in step order until it is closed, and
    return it: a point first reached as act(x) by a step (act, carry) gets
    carry(u_x).  A point orbit starts from {start: u}; the stabilizer chain
    extends its transversals in place.  Finding more than cap points raises
    CapExceeded(what, cap)."""
    points = list(walk)
    for x in points:  # grows while it is walked
        ux = walk[x]
        for act, carry in steps:
            y = act(x)
            if y not in walk:
                if len(points) >= cap:
                    raise CapExceeded(what, cap)
                walk[y] = carry(ux)
                points.append(y)
    return walk


def _unchanged(u):  # the carry of a walk that keeps no transversal
    return u


# --- stabilizer chain ------------------------------------------------------


class _Level:
    __slots__ = ("base", "gens", "gen_invs", "inv_transversal")

    def __init__(self, base: int, identity: tuple[int, ...]):
        self.base = base
        # strong generators and their inverses, as image tuples, in one order
        self.gens: list[tuple[int, ...]] = []
        self.gen_invs: list[tuple[int, ...]] = []
        # inv_transversal[beta] = u^-1 for the word u with base^u = beta; u itself
        # is never stored.  Entries are append-only: once a point has a word, the
        # word (and so its inverse) never changes.  Level verification below
        # relies on this (a successful sift replays identically later), and it
        # holds here because a new entry is built from its BFS parent's stored
        # inverse, (u g)^-1 = g^-1 u^-1, never by rewriting an old one.
        self.inv_transversal: dict[int, tuple[int, ...]] = {base: identity}


class _StabilizerChain:
    """Deterministic Schreier-Sims on image tuples.

    Levels are verified top-down: a level passes once every one of its Schreier
    generators sifts to the identity through the chain below it.  Non-identity
    residues are installed as strong generators at the deeper levels they
    belong to, which only ever extends transversals, so already-verified levels
    stay verified.
    """

    def __init__(self, generators: Sequence[Permutation], degree: int):
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        for g in generators:
            if g.images != self.identity:
                self._add_generator(0, g.images)
        i = 0
        while i < len(self.levels):
            if self._verify_level(i):
                i += 1

    def _add_generator(self, start: int, g: tuple[int, ...]) -> None:
        """Install g at every level from start down to the first level whose
        base point g moves (creating a new level at the end if needed)."""
        g_inv = inverse_images(g)
        i = start
        while True:
            if i == len(self.levels):
                moved = next(pt for pt, img in enumerate(g) if pt != img)
                self.levels.append(_Level(moved, self.identity))
            level = self.levels[i]
            level.gens.append(g)
            level.gen_invs.append(g_inv)
            orbit_walk(level.inv_transversal, [(s.__getitem__, partial(compose_images, s_inv))
                                               for s, s_inv in zip(level.gens, level.gen_invs)])
            if g[level.base] != level.base:
                return
            i += 1

    def sift(self, g: tuple[int, ...], start: int = 0) -> tuple[int, ...]:
        """Reduce the image tuple g through the chain; returns the residue."""
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            u_inv = level.inv_transversal.get(g[level.base])
            if u_inv is None:
                return g
            g = compose_images(g, u_inv)
        return g

    def _verify_level(self, i: int) -> bool:
        level = self.levels[i]
        trans = level.inv_transversal
        for beta in sorted(trans):
            u_inv = trans[beta]
            u = None
            for s in level.gens:
                # the Schreier generator u s t^-1, t the word of beta^s, is
                # trivial exactly when s t^-1 = u^-1; u is built only when needed
                s_t_inv = compose_images(s, trans[s[beta]])
                if s_t_inv == u_inv:
                    continue
                if u is None:
                    u = inverse_images(u_inv)
                residue = self.sift(compose_images(u, s_t_inv), i + 1)
                if residue != self.identity:
                    self._add_generator(i + 1, residue)
                    return False
        return True

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.inv_transversal)
        return n


# --- permutation groups ----------------------------------------------------


class PermutationGroup:
    """A finite permutation group given by generators."""

    def __init__(self, generators: Sequence[Permutation], degree: int | None = None):
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for a generator-free (trivial) group")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = generators
        self._chain: _StabilizerChain | None = None

    def _get_chain(self) -> _StabilizerChain:
        if self._chain is None:
            self._chain = _StabilizerChain(self.generators, self.degree)
        return self._chain

    def order(self) -> int:
        return self._get_chain().order()

    def orbit(self, point: int) -> set[int]:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        steps = [(g.images.__getitem__, _unchanged) for g in self.generators]
        return set(orbit_walk({point: point}, steps))

    def orbits(self) -> list[set[int]]:
        """Orbit partition of the whole domain, ordered by smallest point."""
        remaining = set(range(self.degree))
        out = []
        while remaining:
            orb = self.orbit(min(remaining))
            out.append(orb)
            remaining -= orb
        return out

    def is_transitive(self) -> bool:
        return self.degree > 0 and len(self.orbit(0)) == self.degree

    def set_orbit(self, points: Iterable[int], cap: int = DEFAULT_SET_ORBIT_CAP) -> list[frozenset[int]]:
        """Orbit of a point set under the setwise action, in BFS discovery order."""
        start = frozenset(points)
        for pt in start:
            if not 0 <= pt < self.degree:
                raise ValueError(f"point {pt} out of range for degree {self.degree}")
        steps = [(lambda s, g=g.images: frozenset(compose_images(s, g)), _unchanged) for g in self.generators]
        return list(orbit_walk({start: start}, steps, cap, "set orbit"))

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermutationGroup(degree={self.degree}, gens=[{gens}])"

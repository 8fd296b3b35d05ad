"""Indexed finite groups backed by a faithful permutation representation.

A GroupTable is the one enumeration of a small group T: a BFS from the identity
in generator order, one C-level pass per level whose one dict.setdefault per
product numbers elements by first appearance, so index 0 is the identity and
indices are reproducible.  An element is stored as one bytes of its point
images (table.images, so the degree is at most 256), table.index is keyed by
those bytes, and table.elements is a read-only view making a Permutation on
access.  The one composition kernel is bytes.translate: x t is
x.translate(translate_table(t)), t's images padded to 256 entries, one C call
whose result caches its hash for the index lookup; inverses come from
bytes.maketrans(x, identity).  No |T| x |T| table is ever stored, which keeps
groups up to a few hundred thousand elements workable.  One whole-table
kernel gives a product per element with no multiply: right_multiplication(t),
R_t, the indices of x t for all x (map translates every element, map looks
them up).  The BFS already looks up x g for every x and generator g, so it
keeps R_g of each table generator (one |T|-long tuple per generator, about
1.5 MB on A9).  Class matrices, diagonal translations, the class split and
normalizers read them with no product per element: g^-1 x = (x^-1 g)^-1 and
x^g = R_g[(x^-1 g)^-1], gathers through R_g and inverse.  The class split
grows each class a BFS level at a time through transient arrays x -> x^g
and keeps the sorted members and class ids, one bytes of |T| entries when
there are at most 256 classes (a list above that).  Conjugators to class
representatives are walked class by class on first use.  Centralizers,
normalizers and setwise stabilizers (a point's as its 1-set) are closed from
the Schreier generators of an orbit walk (perm.orbit_walk), not a scan of T.  A coset space
reads each new coset H s g from its parent H s through the stored R_g, one
gather per coset and no product, and orbit counts on cosets come from the
permutation character, one gather of class ids.

Subgroups are Subgroup values: frozensets of element indices that also hold
their table and the generators kept for them.  Only _closure builds one, for
close_subgroup and validate_subgroup.  It keeps an index as a generator only
when the index lies outside the span of the smaller indices kept before it
(the greedy rule), and grows a level at a time, one dict.fromkeys over the
products of a level, multiplying each member by each kept generator once, so
a subgroup H with k kept generators costs O(|H| k) products, not the |H|^2 of
checking every product.  Functions that need a subgroup's generators accept
any index set and pass it through validate_subgroup, which returns a Subgroup
of the same table as it is and closes anything else once.  The helpers cover
derived subgroups, centralizers, normalizers, Sylow subgroups, setwise
stabilizers, and coset spaces.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, islice, repeat
from operator import itemgetter, setitem
from typing import Iterable, Iterator

from .errors import CapExceeded, InvalidSubgroup, VerificationInconsistency
from .perm import Permutation, PermutationGroup, compose_images, orbit_walk

DEFAULT_TABLE_CAP = 10**4
MAX_TABLE_DEGREE = 256  # the points of an element are the values of one bytes


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class of a GroupTable: its smallest member index as the
    representative, and all member indices in increasing order."""

    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class _Elements(Sequence):
    """A table's elements in index order, read-only: each access makes the
    Permutation of the stored bytes."""

    __slots__ = ("_images",)

    def __init__(self, images: list[bytes]):
        self._images = images

    def __len__(self) -> int:
        return len(self._images)

    def __getitem__(self, i: int) -> Permutation:
        return Permutation._unchecked(tuple(self._images[i]))

    def __iter__(self) -> Iterator[Permutation]:
        return (Permutation._unchecked(tuple(x)) for x in self._images)


class GroupTable:
    """All elements of a finite permutation group, indexed 0..|T|-1.  The class
    split, the class orders, the class names and the generating pair are each
    computed on first read and kept as a cached_property."""

    def __init__(self, group: PermutationGroup, cap: int = DEFAULT_TABLE_CAP, name: str | None = None):
        n = group.degree
        if n > MAX_TABLE_DEGREE:
            raise ValueError(
                f"a group table holds points as bytes, so its degree is at most {MAX_TABLE_DEGREE}; got {n}"
            )
        self.group = group
        self.name = name
        self._pad = bytes(range(n, 256))
        identity = bytes(range(n))
        self.images: list[bytes] = [identity]
        self.index: dict[bytes, int] = {identity: 0}
        self.elements = _Elements(self.images)
        gens = [bytes(g.images) for g in group.generators]
        gen_tables = [g + self._pad for g in gens]
        images, index = self.images, self.index
        found: list[int] = []  # the index of each x g, x by x in index order and g by g
        done = 0
        while run := images[done:]:  # one BFS level: the elements the last level added
            done = len(images)
            products = chain.from_iterable(zip(*(map(bytes.translate, run, repeat(t)) for t in gen_tables)))
            found += map(index.setdefault, products, map(len, repeat(index)))  # a new x g gets index len(index)
            if len(index) > cap:
                raise CapExceeded("element enumeration", cap)
            images += reversed(list(islice(reversed(index), len(index) - done)))
        inverses = map(identity.translate, map(bytes.maketrans, images, repeat(identity)))
        self.inverse: list[int] = list(map(self.index.__getitem__, inverses))
        self.generator_indices: list[int] = [self.index[g] for g in gens]
        # each generator's R_g, kept from the BFS
        self._rights = {g: tuple(islice(found, k, None, len(gens))) for k, g in enumerate(self.generator_indices)}
        self._walks: dict[int, dict[int, int]] = {}
        self._centralizers: dict[int, frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self.images)

    def translate_table(self, t: int) -> bytes:
        """The table by which x.translate gives the bytes of x t, for the bytes
        x of any element: t's images, padded to 256 entries."""
        return self.images[t] + self._pad

    def multiply(self, i: int, j: int) -> int:
        return self.index[self.images[i].translate(self.translate_table(j))]

    def _products(self, images: Iterable[bytes], t: int) -> Iterator[int]:
        """The indices of x t for the elements x with these bytes, in one C-level pass."""
        return map(self.index.__getitem__, map(bytes.translate, images, repeat(self.translate_table(t))))

    def right_multiplication(self, t: int) -> tuple[int, ...]:
        """The indices of x t for every x in index order: kept from the BFS for
        a table generator, else one _products pass."""
        if t in self._rights:
            return self._rights[t]
        return tuple(self._products(self.images, t))

    def conjugate(self, x: int, t: int) -> int:
        """Index of t^-1 x t."""
        return self.multiply(self.multiply(self.inverse[t], x), t)

    def commutator(self, a: int, b: int) -> int:
        """Index of a^-1 b^-1 a b."""
        return self.multiply(self.multiply(self.inverse[a], self.inverse[b]), self.multiply(a, b))

    @cached_property
    def _class_orders(self) -> list[int]:
        return [self.elements[c.representative].order() for c in self.conjugacy_classes()]

    def element_order(self, i: int) -> int:
        """Order of element i.  Conjugates share an order, so it is computed
        once per conjugacy class and read through class_of."""
        return self._class_orders[self.class_of(i)]

    def exponent(self) -> int:
        return math.lcm(*self._class_orders)

    # --- conjugacy classes -------------------------------------------------

    @cached_property
    def _class_split(self) -> tuple[list[ConjClass], bytes | list[int]]:
        return self._compute_classes()

    def conjugacy_classes(self) -> list[ConjClass]:
        """Classes sorted by (size, smallest member index); representative is the
        smallest member index.  Index 0 (identity) always forms the first class."""
        return self._class_split[0]

    def class_of(self, i: int) -> int:
        return self._class_split[1][i]

    def to_representative(self, y: int) -> int:
        """An element t with y^t = t^-1 y t the representative of y's class (0
        for the representative).  Only the classes asked for are walked, from
        their representatives, on first use (see _class_steps)."""
        cid = self.class_of(y)
        if cid not in self._walks:
            start = self.conjugacy_classes()[cid].representative
            self._walks[cid] = orbit_walk({start: 0}, self._class_steps(cid))
        return self._walks[cid][y]

    def _class_steps(self, cid: int) -> list:
        """_steps on class cid, x -> x^g read from a dict made by one
        conjugates pass over the class."""
        members = self.conjugacy_classes()[cid].members
        return self._steps([dict(zip(members, self.conjugates(members, g))).__getitem__
                            for g in self.generator_indices])

    def conjugates(self, xs: Collection[int], g: int) -> tuple[int, ...]:
        """The x^g = R_g[(x^-1 g)^-1] of the x in xs, for a table generator g:
        four C-level gathers through inverse and the stored R_g."""
        inverse, r = self.inverse, self._rights[g]
        return reduce(compose_images, (inverse, r, inverse, r), xs)

    def _steps(self, acts: list) -> list:
        """orbit_walk steps in which acts[k] acts as the k-th table generator g
        and u -> g^-1 u = (u^-1 g)^-1 carries, read from R_g."""
        inverse = self.inverse
        return [(act, lambda u, r=self._rights[g]: inverse[r[inverse[u]]])
                for act, g in zip(acts, self.generator_indices)]

    def _compute_classes(self) -> tuple[list[ConjClass], bytes | list[int]]:
        """The classes and the class id of each element, split in C-level
        passes: each class grows from the smallest index in no class yet, a BFS
        level at a time, through the whole-table arrays x -> x^g = q(q(x)),
        q: x -> x^-1 g = R_g[x^-1], of the generators."""
        n = len(self.images)
        conjugations = [compose_images(q, q) for q in map(compose_images, repeat(self.inverse), self._rights.values())]
        marked, raw, start = bytearray(n), [], 0
        while start >= 0:
            members = frontier = {start}
            while frontier:  # start pads the frontier so that itemgetter returns tuples
                frontier = set(chain.from_iterable(map(itemgetter(start, *frontier), conjugations))) - members
                members |= frontier
            deque(map(setitem, repeat(marked), members, repeat(1)), 0)  # marks them, in one C-level pass
            raw.append(tuple(sorted(members)))
            start = marked.find(0, start)
        raw.sort(key=len)  # stable, and raw runs by smallest member
        few = len(raw) <= 256  # each class id then fits in a byte
        class_of = bytearray(n) if few else [0] * n
        for cid, ms in enumerate(raw):
            deque(map(setitem, repeat(class_of), ms, repeat(cid)), 0)
        return [ConjClass(ms[0], ms) for ms in raw], bytes(class_of) if few else class_of

    @cached_property
    def _class_names(self) -> list[str]:
        counts: dict[int, int] = {}
        names = []
        for o in self._class_orders:
            counts[o] = k = counts.get(o, 0) + 1
            letters = ""
            while k:
                k, r = divmod(k - 1, 26)
                letters = chr(ord("A") + r) + letters
            names.append(f"{o}{letters}")
        return names

    def class_names(self) -> list[str]:
        """Names like 5A, 5B: element order plus letters following the canonical
        class order, A to Z and then AA, AB, ... as spreadsheet columns run.
        Letters are an internal convention, not Atlas letters."""
        return self._class_names

    def class_by_name(self, name: str) -> int:
        names = self.class_names()
        try:
            return names.index(name)
        except ValueError:
            raise ValueError(f"no conjugacy class named {name!r}; have {names}") from None

    def inverse_class(self, cid: int) -> int:
        rep = self.conjugacy_classes()[cid].representative
        return self.class_of(self.inverse[rep])

    def power_class(self, cid: int, k: int) -> int:
        rep = self.conjugacy_classes()[cid].representative
        x = 0
        for _ in range(k):
            x = self.multiply(x, rep)
        return self.class_of(x)

    # --- generating pair ---------------------------------------------------

    def generating_pair(self) -> tuple[int, int]:
        """A deterministic pair of element indices generating the whole group,
        found once.

        Uses the first two generators when they suffice; otherwise scans for the
        first partner (by index) of the first generator.  T = 1 gets (0, 0).
        """
        return self._pair

    @cached_property
    def _pair(self) -> tuple[int, int]:
        if len(self.images) == 1:
            return 0, 0
        gens = self.generator_indices
        if len(gens) >= 2 and self._pair_generates(gens[0], gens[1]):
            return gens[0], gens[1]
        g1 = gens[0]
        for g2 in range(1, len(self.images)):
            if g2 != g1 and self._pair_generates(g1, g2):
                return g1, g2
        raise ValueError("group is not generated by any pair containing its first generator")

    def _pair_generates(self, i: int, j: int) -> bool:
        sub = PermutationGroup([self.elements[i], self.elements[j]], self.group.degree)
        return sub.order() == len(self.images)


def build_group_table(
    group: PermutationGroup,
    cap: int = DEFAULT_TABLE_CAP,
    name: str | None = None,
    known_order: int | None = None,
) -> GroupTable:
    """The table of the group.  known_order, when provided, is validated exactly
    and admits the enumeration (the cap is raised to it): catalog entries carry
    their orders."""
    if known_order is not None:
        cap = max(cap, known_order)
    table = GroupTable(group, cap=cap, name=name)
    if known_order is not None and len(table) != known_order:
        raise VerificationInconsistency(
            f"group order {len(table)} != expected {known_order}"
        )
    return table


# --- subgroup utilities ----------------------------------------------------


class Subgroup(frozenset):
    """Member indices of a subgroup of table and the generators gens kept for
    it; only _closure makes one.  Set operations on it give plain frozensets."""

    __slots__ = ("table", "gens")


def _closure(table: GroupTable, indices: Iterable[int], cap: int) -> Subgroup:
    """The subgroup generated by the indices, with the generators kept for it.

    The indices are walked in increasing order and one is kept only when it
    lies outside the span of those kept before it.  A kept generator first
    multiplies every member already closed, once, and the members this adds
    are then extended by BFS over all kept generators, a level at a time in
    C-level _products passes.  So each member is multiplied by each kept
    generator exactly once: O(|H| k) products for k kept generators.  Raises
    CapExceeded after the level that passes cap elements.
    """
    images, products = table.images, table._products
    seen = {0: None}  # the members, in the order they were reached
    gens: list[int] = []
    for x in sorted(set(indices)):
        if x in seen:
            continue
        gens.append(x)
        level, steps = list(seen), (x,)
        while level:
            size = len(seen)
            seen |= dict.fromkeys(chain.from_iterable(products(map(images.__getitem__, level), g) for g in steps))
            if len(seen) > cap:
                raise CapExceeded("subgroup closure", cap)
            level, steps = list(islice(reversed(seen), len(seen) - size)), gens
    sub = Subgroup(seen)
    sub.table, sub.gens = table, tuple(gens)
    return sub


def close_subgroup(table: GroupTable, gen_indices: Iterable[int], cap: int | None = None) -> Subgroup:
    """Subgroup generated by the given element indices, in O(|H| k) products
    (see _closure); raises CapExceeded above cap elements, by default |T|."""
    return _closure(table, gen_indices, len(table) if cap is None else cap)


def validate_subgroup(table: GroupTable, subset: Iterable[int]) -> Subgroup:
    """Check a set of element indices is a subgroup of table; returns it as a
    Subgroup.  A Subgroup of this very table comes back as it is.  Any other
    set is closed from its own members with cap |set| (O(|H| k) products, see
    _closure), and is a subgroup exactly when the closure stays within the
    cap: the closure holds every member, so then it equals the set.
    """
    if isinstance(subset, Subgroup) and subset.table is table:
        return subset
    sub = frozenset(subset)
    if 0 not in sub:
        raise InvalidSubgroup("subgroup must contain the identity (index 0)")
    try:
        return _closure(table, sub, len(sub))
    except CapExceeded:
        raise InvalidSubgroup(
            "set of element indices is not closed under multiplication"
        ) from None


def derived_subgroup(table: GroupTable, subgroup: Iterable[int]) -> Subgroup:
    """Commutator subgroup: normal closure in the subgroup of its generator
    commutators."""
    subgroup = validate_subgroup(table, subgroup)
    gens = subgroup.gens
    comms = {table.commutator(a, b) for a in gens for b in gens}
    current = close_subgroup(table, comms, cap=len(subgroup))
    while True:
        extra = {table.conjugate(x, g) for x in current.gens for g in gens}
        if extra <= current:
            return current
        current = close_subgroup(table, current | extra, cap=len(subgroup))


def centralizer(table: GroupTable, x: int) -> frozenset[int]:
    """C_T(x).  C_T(r) of x's class representative r is closed from the
    Schreier generators of the class walk (see _schreier_closure), once per
    class, and kept on the table; C_T(x) is C_T(r) conjugated by u_x^-1, with
    u_x = to_representative(x)."""
    cid, back = table.class_of(x), table.inverse[table.to_representative(x)]  # walks x's class
    c_r = table._centralizers.get(cid)
    if c_r is None:
        c_r = table._centralizers[cid] = _schreier_closure(table, table._walks[cid], table._class_steps(cid))
    return frozenset(table.conjugate(c, back) for c in c_r) if back else c_r


def normalizer(table: GroupTable, subgroup: Iterable[int]) -> frozenset[int]:
    """N_T(H), the stabiliser of H under conjugation (see _stabilizer).  A
    generator g sends H's members to x^g = R_g[(x^-1 g)^-1] as the class walk
    sends one element: four C-level gathers over |H|, no |T|-long array."""
    acts = [lambda h, g=g: frozenset(table.conjugates(h, g)) for g in table.generator_indices]
    return _stabilizer(table, frozenset(validate_subgroup(table, subgroup)), acts)


def setwise_stabilizer(table: GroupTable, points: Iterable[int]) -> frozenset[int]:
    """The elements mapping the point set to itself (see _stabilizer)."""
    acts = [lambda p, g=table.elements[g].images: frozenset(compose_images(p, g))
            for g in table.generator_indices]
    return _stabilizer(table, frozenset(points), acts)


def _stabilizer(table: GroupTable, start, acts: list) -> frozenset[int]:
    """Orbit-stabiliser, with no scan of T: acts[k] acts on points as the k-th
    table generator g, and the walk carries u -> g^-1 u (see GroupTable._steps)."""
    steps = table._steps(acts)
    return _schreier_closure(table, orbit_walk({start: 0}, steps), steps)


def _schreier_closure(table: GroupTable, walk: dict, steps: list) -> frozenset[int]:
    """The stabiliser of the start of an orbit walk that gives each point p a
    u_p with p^(u_p) = start: its Schreier generators (g^-1 u_p)^-1 u_(p^g),
    closed once with cap |T| / |orbit|."""
    schreier = {table.multiply(table.inverse[carry(u)], walk[act(p)]) for p, u in walk.items() for act, carry in steps}
    return frozenset(_closure(table, schreier, len(table) // len(walk)))


def sylow_subgroup(table: GroupTable, p: int) -> Subgroup:
    """A Sylow p-subgroup: start from an element of maximal p-power order and
    grow by p-elements of the normalizer until the full p-part is reached."""
    n = len(table)
    p_part = 1
    while n % (p_part * p) == 0:
        p_part *= p
    if p_part == 1:
        raise ValueError(f"{p} does not divide the group order {n}")
    best = 0
    best_order = 1
    for cls in table.conjugacy_classes():
        o = table.element_order(cls.representative)
        if o > best_order and _is_p_power(o, p):
            best, best_order = cls.representative, o
    current = close_subgroup(table, [best], cap=p_part)
    while len(current) < p_part:
        norm = normalizer(table, current)
        for t in sorted(norm - current):
            if _is_p_power(table.element_order(t), p):
                current = close_subgroup(table, sorted(current | {t}), cap=p_part)
                break
        else:
            raise RuntimeError("could not grow p-subgroup; should not happen in a finite group")
    return current


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# --- coset spaces ----------------------------------------------------------


@dataclass(frozen=True)
class CosetSpace:
    """Right cosets Ht of a subgroup, enumerated BFS from the identity coset."""

    table: GroupTable
    representatives: tuple[int, ...]
    point_of: tuple[int, ...]  # element index -> coset id

    def __len__(self) -> int:
        return len(self.representatives)

    def action_of(self, t: int) -> Permutation:
        """The permutation of coset ids induced by right multiplication with t,
        the products rep t in one C-level pass."""
        images = self.table.images
        products = self.table._products((images[rep] for rep in self.representatives), t)
        return Permutation._unchecked(tuple(map(self.point_of.__getitem__, products)))


def coset_space(table: GroupTable, subgroup: Iterable[int]) -> CosetSpace:
    """Right cosets, numbered in BFS order over the table generators from the
    identity.  A new coset H s g is one C-level gather of R_g over H s."""
    point_of = [-1] * len(table)
    reps: list[int] = []
    rights = [table.right_multiplication(g) for g in table.generator_indices]
    # (s, the members of a coset H p, R_g with s = p g); H itself is H read through R_1
    found = deque([(0, tuple(validate_subgroup(table, subgroup)), range(len(table)))])
    while found:
        s, parent, right = found.popleft()
        if point_of[s] < 0:  # a coset counts from its first element
            members = compose_images(parent, right)
            cid = len(reps)
            reps.append(s)
            for y in members:
                point_of[y] = cid
            found += [(r[s], members, r) for r in rights]
    return CosetSpace(table, tuple(reps), tuple(point_of))


def orbits_on_cosets(space: CosetSpace, subgroup: Iterable[int]) -> list[set[int]]:
    """Orbit partition of a subgroup acting on a coset space, by smallest point."""
    gens = [space.action_of(g) for g in validate_subgroup(space.table, subgroup).gens]
    return PermutationGroup(gens, len(space)).orbits()


def cauchy_frobenius_count(table: GroupTable, h: Iterable[int], subgroup: Iterable[int]) -> int:
    """Orbit count of a subgroup S on the right cosets of H by the permutation
    character: s fixes |C_T(s)| |s^T n H| / |H| cosets (Cauchy-Frobenius), so
    the count is sum over classes c of |S n c| |C_T(c)| |H n c| / (|H| |S|),
    from one C-level gather of class ids over H and over S, with no product."""
    h, subgroup = validate_subgroup(table, h), validate_subgroup(table, subgroup)
    sizes = [c.size for c in table.conjugacy_classes()]
    in_h, in_s = (Counter(compose_images(x, table._class_split[1])) for x in (h, subgroup))
    total = sum(k * in_h[c] * (len(table) // sizes[c]) for c, k in in_s.items())
    count, rem = divmod(total, len(h) * len(subgroup))
    if rem:
        raise InvalidSubgroup("fixed-point sum not divisible by subgroup order; not a subgroup?")
    return count

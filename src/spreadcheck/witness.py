"""Witness machinery for non-spreading permutation groups.

A transitive group G on Omega is shown non-spreading by exhibiting a witness:
a nontrivial point set X and a nontrivial multiset J over Omega whose
cardinality divides |Omega|, such that the J-weight of X^g is one constant for
every g in G.  The verifier here checks exactly that, quantifying over the
distinct images of X (the weight depends only on the image set, so running
over the set orbit is equivalent to running over all of G).

The subgroup-pair builder makes (X, Omega + k*B-orbit - A-orbit) from B normal
in A inside a tabled group T on its own points, when B is transitive on each
A-orbit of the images meeting the A-orbit of a base point.  Over diag(T), with
A and B inside T, that condition is the supplement property over Aut(T):
diagonal_witness decides by it and walks the set orbit of A once, to verify
(A, Omega + |A:B|*B - A) or to find the first image where B is not transitive.
verify_diagonal is the one entry point for a witness over diag(T), and the
first reader of a DiagonalGroup's group: diagonal_witness,
chartab.validate_character_witness and verify-witness --diagonal verify by it.

The remaining operations quantify the supplement condition A = B(A cap A^t)
and its relatives: orbit counts of A and B on cosets, by the permutation
character (a coset space is built only to locate a failure, and as the second
route of orbit_count_pair) and the two-point screen for a regular A-orbit.

Nothing here reads outside input: catalog.read_witness parses and checks a
witness file into the point set and Multiset that verify_witness takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Collection, Iterable

from .autos import AutomorphismGroup
from .diagonal import DiagonalGroup
from .errors import InvalidSubgroup, VerificationInconsistency
from .perm import DEFAULT_SET_ORBIT_CAP, PermutationGroup, compose_images
from .tables import (
    CosetSpace,
    GroupTable,
    Subgroup,
    cauchy_frobenius_count,
    coset_space,
    orbits_on_cosets,
    validate_subgroup,
)


@dataclass(frozen=True)
class Multiset:
    """A multiset over {0..n-1}, stored as a multiplicity vector."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("multiset multiplicities must be nonnegative")

    @classmethod
    def uniform(cls, n: int, mult: int = 1) -> "Multiset":
        return cls((mult,) * n)

    @classmethod
    def indicator(cls, points: Iterable[int], n: int) -> "Multiset":
        counts = [0] * n
        for pt in points:
            counts[pt] += 1
        return cls(tuple(counts))

    @cached_property
    def cardinality(self) -> int:
        return sum(self.counts)

    @property
    def domain_size(self) -> int:
        return len(self.counts)

    def support(self) -> list[int]:
        return [i for i, c in enumerate(self.counts) if c]

    @property
    def is_trivial(self) -> bool:
        """Constant over the whole domain, or supported on at most one point."""
        return len(set(self.counts)) <= 1 or len(self.support()) <= 1

    def __add__(self, other: "Multiset") -> "Multiset":
        if len(self.counts) != len(other.counts):
            raise ValueError("multiset domain size mismatch")
        return Multiset(tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "Multiset") -> "Multiset":
        if len(self.counts) != len(other.counts):
            raise ValueError("multiset domain size mismatch")
        return Multiset(tuple(a - b for a, b in zip(self.counts, other.counts)))

    def __mul__(self, scalar: int) -> "Multiset":
        return Multiset(tuple(scalar * c for c in self.counts))

    __rmul__ = __mul__

    def to_json(self) -> dict[str, int]:
        return {str(i): c for i, c in enumerate(self.counts) if c}


@dataclass(frozen=True)
class Witness:
    """A verified witness (X, J) with its constant image weight."""

    group: PermutationGroup
    group_label: str
    points: frozenset[int]
    multiset: Multiset
    constant: int

    def to_json(self) -> dict:
        return {
            "set": sorted(self.points),
            "multiset": self.multiset.to_json(),
            "constant": self.constant,
            "group": self.group_label,
            "verified": True,
        }


@dataclass(frozen=True)
class Refutation:
    """A failed check, with the violated condition and a concrete counterexample."""

    group_label: str
    points: frozenset[int]
    multiset: Multiset | None
    violation: str
    counterexample: dict

    def to_json(self) -> dict:
        return {
            "set": sorted(self.points),
            "multiset": self.multiset.to_json() if self.multiset is not None else None,
            "group": self.group_label,
            "verified": False,
            "violation": self.violation,
            "counterexample": self.counterexample,
        }


def image_weight(points: Collection[int], multiset: Multiset) -> int:
    return sum(compose_images(points, multiset.counts))


def verify_witness(
    group: PermutationGroup,
    points: Iterable[int],
    multiset: Multiset,
    group_label: str = "G",
    cap: int = DEFAULT_SET_ORBIT_CAP,
) -> Witness | Refutation:
    """Decide whether (X, J) is a witness for a transitive group.

    Checks, in order: X nontrivial, J nontrivial, |J| divides |Omega|, and the
    J-weight of every image of X equals the weight of X itself.  The first
    violated condition is reported with a counterexample.
    """
    x = frozenset(points)
    n = group.degree
    if not group.is_transitive():
        raise ValueError("witness verification requires a transitive group")
    if multiset.domain_size != n:
        raise ValueError(f"multiset domain {multiset.domain_size} != group degree {n}")
    if not all(0 <= pt < n for pt in x):
        raise ValueError("set contains points outside the domain")

    if not 2 <= len(x) < n:
        return Refutation(
            group_label, x, multiset, "set-trivial", {"set_size": len(x), "domain_size": n}
        )
    if multiset.is_trivial:
        reason = "constant" if len(set(multiset.counts)) <= 1 else "single-point"
        return Refutation(group_label, x, multiset, "multiset-trivial", {"reason": reason})
    if n % multiset.cardinality != 0:
        return Refutation(
            group_label,
            x,
            multiset,
            "cardinality",
            {"cardinality": multiset.cardinality, "domain_size": n},
        )

    constant = image_weight(x, multiset)
    for image in group.set_orbit(x, cap):
        weight = image_weight(image, multiset)
        if weight != constant:
            return Refutation(
                group_label,
                x,
                multiset,
                "non-constant",
                {"constant": constant, "image": sorted(image), "image_weight": weight},
            )
    return Witness(group, group_label, x, multiset, constant)


def verify_diagonal(diag: DiagonalGroup, points: Iterable[int], multiset: Multiset,
                    cap: int = DEFAULT_SET_ORBIT_CAP) -> Witness | Refutation:
    """verify_witness over diag(T): the one way a command verifies a witness
    on the |T| points of diag(T), and the first read of its group."""
    return verify_witness(diag.group, points, multiset, diag.label, cap)


# --- subgroup-pair builder --------------------------------------------------


def witness_from_subgroup_pair(
    a_sub: Subgroup,
    b_sub: Iterable[int],
    base_point: int,
    points: Iterable[int] | None = None,
    group_label: str = "G",
    cap: int = DEFAULT_SET_ORBIT_CAP,
) -> Witness | Refutation:
    """Build the witness (X, Omega + k*base^B - base^A) from a subgroup pair
    A (a Subgroup of a table T) and B (indices of T), in T's own permutation
    group on its points.  X defaults to base^A.

    The checks run in order: T's group is transitive, a given X is nonempty
    and proper, then _normal_pair checks that B is normal and proper in A and
    A proper in T.  A transitive A makes the default X all of Omega, refuted
    as "set-trivial" as verify_witness reports it.  The base point's A-orbit
    must split into k >= 2 orbits of B, and B must act transitively on each
    A-orbit of the images of X that meet it; failures of those two
    conditions come back as refutations.  The witness is re-verified from
    scratch before it is returned.
    """
    table = a_sub.table
    group, n = table.group, table.group.degree
    if not group.is_transitive():
        raise ValueError("the ambient group must be transitive")
    a_group = PermutationGroup([table.elements[g] for g in a_sub.gens], n)
    orbit_a = frozenset(a_group.orbit(base_point))
    x = orbit_a if points is None else frozenset(points)
    if points is not None and not 0 < len(x) < n:
        raise ValueError("the point set must be nonempty and proper")
    a_sub, b_sub = _normal_pair(table, a_sub, b_sub)
    if len(x) == n:
        return Refutation(group_label, x, None, "set-trivial", {"set_size": n, "domain_size": n})
    b_group = PermutationGroup([table.elements[g] for g in b_sub.gens], n)
    orbit_b = frozenset(b_group.orbit(base_point))
    # B <= A and B normal, so orbit_a splits into B-orbits of equal size
    k, rem = divmod(len(orbit_a), len(orbit_b))
    if rem:
        raise VerificationInconsistency("B-orbit size does not divide the A-orbit size")
    if k < 2:
        return Refutation(group_label, x, None, "k-too-small",
                          {"k": k, "A_orbit": sorted(orbit_a), "B_orbit": sorted(orbit_b)})
    delta = [y for y in group.set_orbit(x, cap) if y & orbit_a]
    remaining = set(delta)
    while remaining:
        start = next(y for y in delta if y in remaining)
        a_orbit = set(a_group.set_orbit(start, cap))
        if not a_orbit <= remaining:
            raise VerificationInconsistency("A-orbit escaped the filtered image family")
        remaining -= a_orbit
        b_size = len(b_group.set_orbit(start, cap))
        if b_size != len(a_orbit):
            return _not_transitive(group_label, x, start, len(a_orbit), b_size)
    return _pair_witness(partial(verify_witness, group, group_label=group_label, cap=cap),
                         n, x, orbit_a, orbit_b)


def diagonal_witness(
    table: GroupTable,
    auts: AutomorphismGroup,
    a_sub: Iterable[int],
    b_sub: Iterable[int],
    cap: int = DEFAULT_SET_ORBIT_CAP,
) -> Witness | Refutation:
    """The witness (A, Omega + |A:B|*B - A) over the diagonal action on T.

    A must be proper in T and B normal and proper in A, checked before
    diag(T) is made.  The images of A under diag(T) are the right cosets H m
    of the Aut(T)-images H of A, on which A acts by right translation, so B
    is transitive on the A-orbit of H m exactly when A = B(A cap H^m): the
    supplement property over Aut decides the pair.  When it holds, the
    witness is built at once and verify_diagonal makes the one walk of the
    set orbit of A.  When it fails, that walk finds the first image Y, in BFS
    order, that meets A in a point m and whose A- and B-orbits differ in
    size: Y a = Y exactly when m a lies in Y, so the orbit sizes are
    |A| / #{a in A : m a in Y} and |B| / #{b in B : m b in Y}.
    """
    a_set, b_set = _normal_pair(table, a_sub, b_sub)
    diag = DiagonalGroup(table, auts)
    if supplement_property(table, a_set, b_set, "Aut", auts).holds:
        return _pair_witness(partial(verify_diagonal, diag, cap=cap), len(table), a_set, a_set, b_set)
    for y in diag.group.set_orbit(a_set, cap):
        meet = y & a_set
        if meet:
            m = min(meet)
            size_a, size_b = (len(h) // sum(table.multiply(m, g) in y for g in h) for h in (a_set, b_set))
            if size_a != size_b:
                return _not_transitive(diag.label, a_set, y, size_a, size_b)
    raise VerificationInconsistency("the supplement property fails, yet B is transitive on every A-orbit")


def _not_transitive(group_label: str, x, member: frozenset[int], orbit_size: int, b_size: int) -> Refutation:
    """The refutation: the A-orbit of the image member splits into B-orbits."""
    return Refutation(group_label, x, None, "B-not-transitive-on-orbit",
                      {"orbit_size": orbit_size, "B_suborbit_size": b_size, "member": sorted(member)})


def _pair_witness(verify: Callable[[frozenset[int], Multiset], Witness | Refutation], n: int,
                  x: frozenset[int], orbit_a: frozenset[int], orbit_b: frozenset[int]) -> Witness:
    """(X, Omega + k*orbit_b - orbit_a) on n points, k = |orbit_a : orbit_b|,
    re-verified by verify(X, multiset)."""
    k = len(orbit_a) // len(orbit_b)
    multiset = Multiset.uniform(n) + k * Multiset.indicator(orbit_b, n) - Multiset.indicator(orbit_a, n)
    if multiset.cardinality != n:
        raise VerificationInconsistency(f"witness multiset cardinality {multiset.cardinality} != domain size {n}")
    result = verify(x, multiset)
    if isinstance(result, Refutation):
        raise VerificationInconsistency(f"constructed witness failed re-verification: {result.violation}")
    return result


def _normal_pair(table: GroupTable, a_sub, b_sub) -> tuple[Subgroup, Subgroup]:
    """A and B as subgroups of T, after checking that B is normal and proper
    in A and that A is proper in T."""
    a_set = validate_subgroup(table, a_sub)
    b_set = validate_subgroup(table, b_sub)
    if not b_set <= a_set:
        raise InvalidSubgroup("B must be contained in A")
    if len(b_set) >= len(a_set):
        raise InvalidSubgroup("B must be a proper subgroup of A")
    for a in a_set.gens:
        for b in b_set.gens:
            if table.conjugate(b, a) not in b_set:
                raise InvalidSubgroup("B is not normalized by A")
    if len(a_set) >= len(table):
        raise InvalidSubgroup("A must be a proper subgroup of T")
    return a_set, b_set


# --- supplement property ----------------------------------------------------


@dataclass(frozen=True)
class SupplementReport:
    """Outcome of checking A = B(A cap A^t) over a scope of conjugators."""

    holds: bool
    scope: str
    failing_element: int | None = None
    failing_outer: int | None = None

    def to_json(self) -> dict:
        out: dict = {"holds": self.holds, "scope": self.scope}
        if not self.holds:
            out["failing_element"] = self.failing_element
            if self.scope == "Aut":
                out["failing_outer"] = self.failing_outer
        return out


def supplement_property(
    table: GroupTable,
    a_set: Iterable[int],
    b_set: Iterable[int],
    scope: str = "T",
    auts: AutomorphismGroup | None = None,
) -> SupplementReport:
    """Check A = B(A cap H^t) for every t in T, for H = A or, over scope "Aut",
    each image A^phi, phi one representative per outer coset (the identity's
    image is A itself and is not closed again).

    A cap H^t stabilises the coset H t in A, so the property holds at H t
    exactly when its A-orbit is one B-orbit, and on all of H exactly when A
    and B have equally many orbits, both counted by the permutation character.
    Only when they differ is the coset space built, to report the first
    representative, in BFS order, whose A- and B-orbits differ.
    """
    a_set, b_set = _normal_pair(table, a_set, b_set)
    if scope == "T":
        outer_images: list[tuple[int | None, frozenset[int]]] = [(None, a_set)]
    elif scope == "Aut":
        if auts is None:
            raise ValueError("scope 'Aut' requires the automorphism group")
        outer_images = [(idx, a_set if aut.is_identity else aut.apply_to_set(a_set))
                        for idx, aut in enumerate(auts.coset_representatives)]
    else:
        raise ValueError(f"scope must be 'T' or 'Aut', got {scope!r}")

    for outer_idx, image in outer_images:
        image = validate_subgroup(table, image)
        if cauchy_frobenius_count(table, image, a_set) != cauchy_frobenius_count(table, image, b_set):
            space = coset_space(table, image)
            size_a, size_b = _orbit_sizes(space, a_set), _orbit_sizes(space, b_set)
            t = next((t for cid, t in enumerate(space.representatives) if size_a[cid] != size_b[cid]), None)
            if t is None:
                raise VerificationInconsistency("orbit counts differ, yet every A-orbit is a B-orbit")
            return SupplementReport(False, scope, failing_element=t, failing_outer=outer_idx)
    return SupplementReport(True, scope)


def _orbit_sizes(space: CosetSpace, subgroup: Subgroup) -> dict[int, int]:
    """The size of each coset's orbit under the subgroup, by coset id."""
    return {point: len(orbit) for orbit in orbits_on_cosets(space, subgroup) for point in orbit}


def orbit_count_pair(
    table: GroupTable, a_set: Iterable[int], b_set: Iterable[int]
) -> tuple[int, int]:
    """Orbit counts of A and of B on the right cosets of A.

    Both counts are computed twice, by direct orbit partition of the coset
    action and by the permutation character; disagreement raises, since it
    would mean a bug.
    """
    a_set, b_set = validate_subgroup(table, a_set), validate_subgroup(table, b_set)
    if not b_set <= a_set:
        raise InvalidSubgroup("B must be contained in A")
    space = coset_space(table, a_set)
    c_a, c_b = len(orbits_on_cosets(space, a_set)), len(orbits_on_cosets(space, b_set))
    if (c_a, c_b) != (cauchy_frobenius_count(table, a_set, a_set), cauchy_frobenius_count(table, a_set, b_set)):
        raise VerificationInconsistency("orbit counts: partition and permutation character differ")
    return c_a, c_b


def two_point_stabilizer_trivial(table: GroupTable, a_set: Iterable[int]) -> int | None:
    """The first t in index order with A cap A^t trivial, or None.

    A cap A^t is the stabiliser in A of the coset A t, so it is trivial
    exactly when the A-orbit of A t is regular, of size |A|.
    """
    a_set = validate_subgroup(table, a_set)
    if len(a_set) >= len(table):
        raise InvalidSubgroup("A must be a proper subgroup of T")
    space = coset_space(table, a_set)
    sizes = _orbit_sizes(space, a_set)
    return next((t for t, cid in enumerate(space.point_of) if sizes[cid] == len(a_set)), None)

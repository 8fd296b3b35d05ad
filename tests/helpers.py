"""Slow, obviously correct re-implementations used to cross-check the package."""

from __future__ import annotations

import gc
import tracemalloc
from collections.abc import Iterable, Sequence
from math import lcm

from spreadcheck.autos import Automorphism, _cayley_walk
from spreadcheck.cyclotomic import CyclotomicValue, from_coefficients
from spreadcheck.diagonal import DiagonalGroup, right_translation
from spreadcheck.errors import InvalidSubgroup
from spreadcheck.perm import (
    DEFAULT_SET_ORBIT_CAP,
    Permutation,
    PermutationGroup,
    compose_images,
    inverse_images,
    orbit_walk,
)
from spreadcheck.tables import cauchy_frobenius_count, coset_space, normalizer, sylow_subgroup, validate_subgroup
from spreadcheck.witness import (
    Multiset,
    Refutation,
    SupplementReport,
    Witness,
    image_weight,
    verify_witness,
)


def uniform(n, mult=1):
    """The multiset with every point of {0..n-1} mult times."""
    return Multiset((mult,) * n)


def indicator(points, n):
    """The multiset over {0..n-1} counting each listed point once per listing."""
    counts = [0] * n
    for pt in points:
        counts[pt] += 1
    return Multiset(tuple(counts))


def perm_product(*perms):
    """The product of the permutations, the left factor acting first: p then q
    sends i to q(p(i))."""
    images = perms[0].images
    for q in perms[1:]:
        images = compose_images(images, q.images)
    return Permutation(images)


def perm_inverse(p):
    return Permutation(inverse_images(p.images))


def identity(degree):
    return Permutation(tuple(range(degree)))


def is_identity(p):
    return p.images == tuple(range(p.degree))


def naive_elements(generators, degree, cap=200_000):
    """Plain breadth-first closure of a generating set, no stabilizer chain."""
    frontier = [identity(degree)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = perm_product(p, g)
                if q not in seen:
                    assert len(seen) < cap, "naive closure cap hit"
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def power(p, exponent):
    """p to the given power by repeated squaring; a negative power is a
    power of the inverse."""
    if exponent < 0:
        return power(perm_inverse(p), -exponent)
    result, base = identity(p.degree), p
    while exponent:
        if exponent & 1:
            result = perm_product(result, base)
        base = perm_product(base, base)
        exponent >>= 1
    return result


def group_contains(group, p):
    """Membership of p in a PermutationGroup: p sifts to the identity through
    the group's stabilizer chain."""
    chain = group._chain
    return chain.sift(p.images) == chain.identity


def moved_points(p):
    """The points a permutation does not fix, in increasing order."""
    return [i for i, img in enumerate(p.images) if i != img]


def point_stabilizer_group(group, point):
    """The stabilizer of a point in a PermutationGroup, generated by the
    Schreier generators of the point's orbit."""
    steps = [(g.images.__getitem__, lambda u, g=g: perm_product(u, g)) for g in group.generators]
    trans = orbit_walk({point: identity(group.degree)}, steps)
    gens: dict[tuple[int, ...], Permutation] = {}
    for beta in sorted(trans):
        for s in group.generators:
            schreier = perm_product(trans[beta], s, perm_inverse(trans[s(beta)]))
            if not is_identity(schreier):
                gens.setdefault(schreier.images, schreier)
    return PermutationGroup(list(gens.values()), group.degree)


def naive_orbit(generators, point):
    orbit = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in generators:
                img = g(pt)
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return orbit


def naive_bfs_order(start, actions):
    """The orbit of start level by level: each level in the order its points
    are first reached, each point's images in action order."""
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for act in actions:
                y = act(x)
                if y not in order and y not in nxt:
                    nxt.append(y)
        order += nxt
        frontier = nxt
    return order


def scan_normalizer(table, subgroup):
    """N_T(H) by testing every t in T: H's generators conjugated by t stay in H."""
    subgroup = validate_subgroup(table, subgroup)
    return frozenset(
        t for t in range(len(table)) if all(table.conjugate(g, t) in subgroup for g in subgroup.gens)
    )


def scan_setwise_stabilizer(table, points):
    """The elements of T mapping the point set to itself, by testing each."""
    pts = frozenset(points)
    return frozenset(i for i, p in enumerate(table.elements) if frozenset(p(x) for x in pts) == pts)


def sorted_tuple_set_orbit(group, points, cap=1_000_000):
    """Set orbit re-enumerated with sorted tuples instead of frozensets."""
    start = tuple(sorted(points))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for tup in frontier:
            for g in group.generators:
                img = tuple(sorted(g(p) for p in tup))
                if img not in seen:
                    assert len(seen) < cap, "set orbit cap hit"
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def full_sweep_weights(group, points, multiset, cap=20_000):
    """Image weights over every single group element, no set-orbit shortcut."""
    pts = sorted(points)
    return {image_weight([g(p) for p in pts], multiset)
            for g in naive_elements(group.generators, group.degree, cap)}


def recheck_witness(witness: Witness, sweep_cap: int | None = None) -> None:
    """Independent pass over a verified witness.

    With sweep_cap set, walks all group elements; otherwise re-enumerates the
    set orbit with a different container type. Either way, every image weight
    must equal the stored constant, and the side conditions must hold.
    """
    n = witness.multiset.domain_size
    assert 1 < len(witness.points) < n
    assert not witness.multiset.is_trivial
    assert n % witness.multiset.cardinality == 0
    if sweep_cap is not None:
        weights = full_sweep_weights(witness.group, witness.points, witness.multiset, cap=sweep_cap)
    else:
        orbit = sorted_tuple_set_orbit(witness.group, witness.points)
        weights = {image_weight(tup, witness.multiset) for tup in orbit}
    assert weights == {witness.constant}


def recheck_refutation(ref: Refutation, group=None) -> None:
    """Confirm a refutation's counterexample by direct recomputation."""
    ce = ref.counterexample
    if ref.violation == "set-trivial":
        n = group.degree if group is not None else ref.multiset.domain_size
        assert len(ref.points) <= 1 or len(ref.points) >= n
    elif ref.violation == "multiset-trivial":
        assert ref.multiset.is_trivial
    elif ref.violation == "cardinality":
        assert ref.multiset.cardinality == ce["cardinality"]
        assert ce["domain_size"] % ce["cardinality"] != 0
    elif ref.violation == "non-constant":
        got = image_weight(ce["image"], ref.multiset)
        assert got == ce["image_weight"] != ce["constant"]
        if group is not None:
            assert tuple(sorted(ce["image"])) in sorted_tuple_set_orbit(group, ref.points)
    elif ref.violation == "k-too-small":
        assert ce["k"] < 2
    elif ref.violation == "B-not-transitive-on-orbit":
        assert ce["B_suborbit_size"] < ce["orbit_size"]
    else:
        raise AssertionError(f"unknown violation kind {ref.violation!r}")


def product_set(table, left, right):
    """The literal set {b s}; quadratic, for small inputs."""
    right = list(right)
    return frozenset(table.multiply(b, s) for b in left for s in right)


def right_cosets(table, subgroup):
    """The right cosets H s as the literal sets {h s}, one for each s in index
    order that no earlier coset holds."""
    cosets, covered = [], set()
    for s in range(len(table)):
        if s not in covered:
            cosets.append(frozenset(table.multiply(h, s) for h in subgroup))
            covered |= cosets[-1]
    return cosets


def conjugate_subgroup(table, subgroup, t):
    """The conjugate t^-1 H t, built member by member."""
    return frozenset(table.conjugate(x, t) for x in subgroup)


def sylow_normalizer(table, p):
    """N_T(P) of the Sylow p-subgroup P that sylow_subgroup grows."""
    return normalizer(table, sylow_subgroup(table, p))


def product_size(table, left, right):
    """|B S| for subgroups B, S via |B||S| / |B n S|."""
    size, rem = divmod(len(left) * len(right), len(left & right))
    if rem:
        raise InvalidSubgroup("product size formula requires both factors to be subgroups")
    return size


def supplement_per_coset(table, a_set, b_set, scope="T", auts=None):
    """The supplement property coset by coset: for each image H of A and each
    coset representative t of H in T, read A n H^t from the coset space (a
    lies in H^t exactly when t a lies in the coset H t) and test
    |B (A n H^t)| = |A|.  Reports the first failure, as supplement_property."""
    a_set, b_set = validate_subgroup(table, a_set), validate_subgroup(table, b_set)
    if scope == "T":
        images = [(None, a_set)]
    else:
        images = list(enumerate(aut.apply_to_set(a_set) for aut in auts.coset_representatives))
    for outer, image in images:
        space = coset_space(table, image)
        for t in space.representatives:
            cid = space.point_of[t]
            meet = frozenset(a for a in a_set if space.point_of[table.multiply(t, a)] == cid)
            if product_size(table, b_set, meet) != len(a_set):
                return SupplementReport(False, scope, failing_element=t, failing_outer=outer)
    return SupplementReport(True, scope)


def diagonal_witness_by_walk(table, auts, a_set, b_set, cap=DEFAULT_SET_ORBIT_CAP):
    """diagonal_witness by set-orbit walks alone, for Subgroups B normal and
    proper in A < T: walk the set orbit of A under diag(T), keep the images
    meeting A, and walk the A- and B-set orbits of the first image, in BFS
    order, of each A-orbit; refute at the first A-orbit that is not one
    B-orbit, else verify (A, Omega + |A:B|*B - A) by verify_witness."""
    diag = DiagonalGroup(table, auts)
    n = diag.group.degree
    a_group, b_group = (PermutationGroup([right_translation(table, g) for g in h.gens], n)
                        for h in (a_set, b_set))
    delta = [y for y in diag.group.set_orbit(a_set, cap) if y & a_set]
    remaining = set(delta)
    for start in delta:
        if start in remaining:
            a_orbit = set(a_group.set_orbit(start, cap))
            assert a_orbit <= remaining, "an A-orbit left the images meeting A"
            remaining -= a_orbit
            b_orbit = set(b_group.set_orbit(start, cap))
            if b_orbit != a_orbit:
                return Refutation(diag.label, a_set, None, "B-not-transitive-on-orbit",
                                  {"orbit_size": len(a_orbit), "B_suborbit_size": len(b_orbit),
                                   "member": sorted(start)})
    k = len(a_set) // len(b_set)
    multiset = Multiset(tuple(1 + k * (g in b_set) - (g in a_set) for g in range(n)))
    return verify_witness(diag.group, a_set, multiset, diag.label, cap)


def orbit_bound_holds(table, a_set):
    """Whether c|A|/2 >= |T:A| for c = number of A-orbits on cosets of A,
    counted by the permutation character.

    The bound is necessary for all two-point stabilizers to be nontrivial, so
    a False here certifies that some A cap A^t is trivial.
    """
    a_set = validate_subgroup(table, a_set)
    if len(a_set) >= len(table):
        raise InvalidSubgroup("A must be a proper subgroup of T")
    c = cauchy_frobenius_count(table, a_set, a_set)
    return c * len(a_set) >= 2 * (len(table) // len(a_set))


def fixed_point_average(table, h, subgroup):
    """Orbit count of a subgroup on the cosets of H: the average number of
    cosets each member fixes, read from action_of."""
    space = coset_space(table, h)
    total = sum(sum(1 for cid, image in enumerate(space.action_of(s).images) if image == cid)
                for s in subgroup)
    count, rem = divmod(total, len(subgroup))
    assert rem == 0, "fixed points do not average to an integer"
    return count


def coset_action(table, subgroup):
    """The induced action of the whole group on the cosets of the subgroup."""
    space = coset_space(table, subgroup)
    image_gens = [space.action_of(g) for g in table.generator_indices]
    return space, PermutationGroup(image_gens, len(space))


def is_automorphism(table, mapping):
    """Full check: bijection on indices, multiplicative against every generator.

    Multiplicativity on (all x, generator g) extends to all pairs by induction
    on the word length of the second factor, since every element is a positive
    word in the generators.
    """
    mapping = tuple(mapping)
    n = len(table)
    if len(mapping) != n or len(set(mapping)) != n:
        return False
    for g in table.generator_indices:
        mg = mapping[g]
        for x in range(n):
            if mapping[table.multiply(x, g)] != table.multiply(mapping[x], mg):
                return False
    return True


def extend_images(table, rights, images):
    """The map of indices sending the g_k with rights[k] = R_(g_k) to images[k]
    if it is an automorphism, else None: a Cayley walk that passes every edge
    to every element is a homomorphism, and an automorphism when only the
    identity maps to the identity."""
    mapping = _cayley_walk(table, rights, images)
    return None if mapping is None or -1 in mapping or mapping.count(0) != 1 else tuple(mapping)


def classes_by_orbit_walk(table):
    """The class walk as orbit_walk does it over whole-table conjugation
    arrays, built product by product: for each generator g, x -> x^g acts
    and u -> g^-1 u carries.  One dict per class gives the conjugator taking
    each element to its class's smallest member, and the classes come as
    (smallest member, members), sorted by (size, smallest member)."""
    to_rep = [-1] * len(table)
    raw = []
    steps = []
    for g in table.generator_indices:
        left = tuple(table.multiply(table.inverse[g], x) for x in range(len(table)))
        steps.append((tuple(table.multiply(y, g) for y in left).__getitem__, left.__getitem__))
    for start in range(len(table)):
        if to_rep[start] < 0:
            walk = orbit_walk({start: 0}, steps)
            for y, u in walk.items():
                to_rep[y] = u
            raw.append(sorted(walk))
    raw.sort(key=lambda ms: (len(ms), ms[0]))
    return to_rep, [(ms[0], tuple(ms)) for ms in raw]


def inner_automorphism(table, t):
    """Conjugation x -> t^-1 x t as an automorphism."""
    gens = tuple(table.generator_indices)
    return Automorphism(table, gens, tuple(table.conjugate(g, t) for g in gens))


def inverse_automorphism(aut):
    """phi^-1, which sends each image phi(g) of a generator back to g; the
    images generate T, so they are its generators."""
    return Automorphism(aut.table, aut.images, aut.gens)


def compose(first, then):
    """first followed by then, matching the permutation convention in this
    package, as the images of the generating pair."""
    a, b = first.table.generating_pair()
    return Automorphism(first.table, (a, b), (then(first(a)), then(first(b))))


def inner_witness(table, aut):
    """An element t with conjugation by t equal to aut, or None if aut is outer."""
    a, b = table.generating_pair()
    ia, ib = aut(a), aut(b)
    for t in range(len(table)):
        if table.conjugate(a, t) == ia and table.conjugate(b, t) == ib:
            # agreeing on a generating pair forces agreement everywhere
            return t
    return None


def class_mult_coefficient(table, c1, c2, h):
    """Number of pairs (x, y) with x in class c1, y in class c2, and xy = h."""
    classes = table.conjugacy_classes()
    count = 0
    for x in classes[c1].members:
        if table.class_of(table.multiply(table.inverse[x], h)) == c2:
            count += 1
    return count


def sum_of_products(
    terms: Iterable[tuple[int, Sequence[CyclotomicValue]]],
) -> CyclotomicValue:
    """The value of the sum of w v_1 ... v_r over the terms (w, (v_1, ..., v_r)),
    the oracle for the orthogonality kernel chartab._orthogonal.

    Every factor is read as a polynomial in one primitive n-th root of unity,
    n the lcm of all the factors' orders, and every product is added into one
    coefficient list of length n: exponents are taken modulo n, as x^n - 1 is
    a multiple of Phi_n.  That list is reduced modulo Phi_n once.  An empty
    sum is 0, and a term with no factors adds its weight.
    """
    terms = list(terms)
    n = lcm(*(v.order for _, factors in terms for v in factors))
    total = [0] * n
    for weight, factors in terms:
        product = {0: weight}
        for v in factors:
            step, grown = n // v.order, {}
            for e, a in product.items():
                for j, c in enumerate(v.coeffs):
                    if c:
                        k = (e + j * step) % n
                        grown[k] = grown.get(k, 0) + a * c
            product = grown
        for e, a in product.items():
            total[e] += a
    return from_coefficients(n, total)


def class_algebra_consistent(table, ct, triples):
    """Cross-check character table entries against brute-force pair counts.

    For each (c1, c2, c3): the character-sum formula for the number of ways
    to write a fixed c3-element as (c1-element)(c2-element) must match the
    direct count.  Exact integer arithmetic throughout.
    """
    n = ct.group_order
    classes = table.conjugacy_classes()
    for c1, c2, c3 in triples:
        s = sum_of_products((n // degree, (row[c1], row[c2], row[c3].conjugate()))
                            for degree, row in zip(ct.degrees, ct.rows))
        if not s.is_rational:
            return False
        brute = class_mult_coefficient(table, c1, c2, classes[c3].representative)
        if s.as_int() * classes[c1].size * classes[c2].size != brute * n * n:
            return False
    return True


def retained_bytes(fn):
    """fn() and the bytes that it allocated and that are still held once it
    has returned, as tracemalloc counts them, with fn's garbage collected."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held

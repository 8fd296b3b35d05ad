"""Checks of the program's outputs that do not use the program's arithmetic.

Permutations are plain tuples of images; ``compose(p, q)`` applies p first.
The program hands over data only (element images, index sets, automorphism
mappings, certificates); every property is recomputed here.  Each check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

# ATLAS of Finite Groups: order, number of classes, |Out|, character degrees
ATLAS = {
    "A5": (60, 5, 2, [1, 3, 3, 4, 5]),
    "A6": (360, 7, 4, [1, 5, 5, 8, 8, 9, 10]),
    "A7": (2520, 9, 2, [1, 6, 10, 10, 14, 14, 15, 21, 35]),
    "A8": (20160, 14, 2, [1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70]),
    "A9": (181440, 18, 2, [1, 8, 21, 21, 27, 28, 35, 35, 42, 48, 56, 84, 105, 120, 162,
                           168, 189, 216]),
    "PSL(2,7)": (168, 6, 2, [1, 3, 3, 6, 7, 8]),
    "PSL(3,2)": (168, 6, 2, [1, 3, 3, 6, 7, 8]),
    "PSL(2,8)": (504, 9, 3, [1, 7, 7, 7, 7, 8, 9, 9, 9]),
    "PSL(2,11)": (660, 8, 2, [1, 5, 5, 10, 10, 11, 12, 12]),
    "PSL(2,13)": (1092, 9, 2, [1, 7, 7, 12, 12, 12, 13, 14, 14]),
    "M11": (7920, 10, 1, [1, 10, 10, 10, 11, 16, 16, 44, 45, 55]),
    "M12": (95040, 15, 2, [1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176]),
}

# Rank of T on the cosets of A where it is known in closed form: the
# 2-transitive actions, and A7 and A8 on 3-sets.
KNOWN_RANKS = {
    ("A5", "A4"): 2, ("A5", "D10"): 2, ("A6", "F36"): 2, ("PSL(2,7)", "F21"): 2,
    ("PSL(3,2)", "F21"): 2, ("PSL(2,8)", "F56"): 2, ("PSL(2,11)", "F55"): 2,
    ("PSL(2,13)", "F78"): 2, ("M11", "M10"): 2, ("A7", "stab3"): 4, ("A8", "stab3"): 4,
}


def compose(p: tuple, q: tuple) -> tuple:
    return tuple(map(q.__getitem__, p))


def invert(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


class Group:
    """A group given as the list of its elements' images, indexed like the program's table.

    The list is accepted only if it has the stated order and is closed under
    the generators, so it is exactly the group they generate.
    """

    def __init__(self, elements: list[tuple], generators: list[tuple], order: int):
        self.el = elements
        self.idx = {p: i for i, p in enumerate(elements)}
        self.gens = [self.idx.get(g) for g in generators]
        identity = tuple(range(len(elements[0])))
        if len(self.idx) != order or None in self.gens or identity not in self.idx:
            raise ValueError(f"element list has {len(self.idx)} elements, expected {order}")
        for p in elements:
            for g in generators:
                if compose(p, g) not in self.idx:
                    raise ValueError("element list is not closed under the generators")
        self.inv = [self.idx[invert(p)] for p in elements]

    def __len__(self) -> int:
        return len(self.el)

    def mul(self, i: int, j: int) -> int:
        return self.idx[compose(self.el[i], self.el[j])]

    def conj(self, x: int, t: int) -> int:
        return self.mul(self.mul(self.inv[t], x), t)

    def closure(self, gens) -> set[int]:
        members = {self.idx[tuple(range(len(self.el[0])))]}
        frontier = list(members)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return members

    def generators_of(self, subset: frozenset[int]) -> list[int]:
        """A generating set of subset, which must then be a subgroup."""
        gens: list[int] = []
        span = self.closure(gens)
        for x in sorted(subset):
            if x not in span:
                gens.append(x)
                span = self.closure(gens)
        if span != subset:
            raise ValueError("index set is not a subgroup")
        return gens

    def right_cosets(self, sub: frozenset[int]) -> list[int]:
        """Coset id of every element for the right cosets S t."""
        coset = [-1] * len(self.el)
        count = 0
        for t in range(len(self.el)):
            if coset[t] < 0:
                for s in sub:
                    coset[self.mul(s, t)] = count
                count += 1
        return coset

    def conjugate_set(self, sub, t: int) -> frozenset[int]:
        return frozenset(self.conj(x, t) for x in sub)

    def is_automorphism(self, mapping) -> bool:
        n = len(self.el)
        if tuple(mapping) == tuple(range(n)):
            return True
        if sorted(mapping) != list(range(n)):
            return False
        return all(
            mapping[self.mul(x, g)] == self.mul(mapping[x], mapping[g])
            for x in range(len(self.el)) for g in self.gens
        )


def count_orbits(n: int, actions: list[list[int]]) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for act in actions:
        for x, y in enumerate(act):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    return sum(1 for x in range(n) if find(x) == x)


def product_size(b: frozenset[int], s: frozenset[int]) -> int:
    return len(b) * len(s) // len(b & s)


# --- subgroups --------------------------------------------------------------


def check_pair(g: Group, name: str, a_label: str, b_label: str, a: frozenset[int],
               b: frozenset[int], aut_maps: list, answers: dict) -> list[str]:
    """Orbit counts, both supplement verdicts and their refutations for one pair.

    aut_maps are the automorphism coset representatives, already checked by
    ``Group.is_automorphism``."""
    problems = []
    tag = f"{name} ({a_label}, {b_label})"
    a_gens, b_gens = g.generators_of(a), g.generators_of(b)
    if not b < a or any(g.conj(x, y) not in b for x in b_gens for y in a_gens):
        return [f"{tag}: B is not a proper normal subgroup of A"]
    coset = g.right_cosets(a)
    index = len(g) // len(a)
    reps = sorted({coset[t]: t for t in range(len(g) - 1, -1, -1)}.items())
    reps = [t for _, t in reps]
    actions = {
        "A": [[coset[g.mul(t, x)] for t in reps] for x in a_gens],
        "B": [[coset[g.mul(t, x)] for t in reps] for x in b_gens],
    }
    c_a, c_b = count_orbits(index, actions["A"]), count_orbits(index, actions["B"])
    if answers["orbits"] != (c_a, c_b):
        problems.append(f"{tag}: orbit counts {answers['orbits']}, recomputed {(c_a, c_b)}")
    known = KNOWN_RANKS.get((name, a_label))
    if known is not None and c_a != known:
        problems.append(f"{tag}: rank {c_a}, known value {known}")
    if b_label == "1" and c_b != index:
        problems.append(f"{tag}: trivial B has {c_b} orbits on {index} cosets")

    conjugates = {g.conjugate_set(a, t) for t in reps}
    holds_t = all(product_size(b, a & s) == len(a) for s in conjugates)
    t_ans, aut_ans = answers["T"], answers["Aut"]
    if t_ans[0] != holds_t:
        problems.append(f"{tag}: scope T verdict {t_ans[0]}, recomputed {holds_t}")
    gate = all(frozenset(m[x] for x in a) in conjugates for m in aut_maps)
    if gate and aut_ans[0] != t_ans[0]:
        problems.append(f"{tag}: scopes T and Aut disagree though A^Aut = A^T")
    for scope, (holds, t, outer) in (("T", t_ans), ("Aut", aut_ans)):
        if holds:
            continue
        image = frozenset(aut_maps[outer][x] for x in a) if scope == "Aut" else a
        if product_size(b, a & g.conjugate_set(image, t)) == len(a):
            problems.append(f"{tag}: scope {scope} refutation at t = {t} does not re-check")
    return problems


def check_two_point(g: Group, tag: str, a: frozenset[int], t) -> list[str]:
    if t is not None:
        if len(a & g.conjugate_set(a, t)) != 1:
            return [f"{tag}: A meets A^t nontrivially at t = {t}"]
        return []
    coset = g.right_cosets(a)
    reps = {coset[t]: t for t in range(len(g))}.values()
    if any(len(a & g.conjugate_set(a, t)) == 1 for t in reps):
        return [f"{tag}: screen found no t, but a trivial A meet A^t exists"]
    return []


# --- witnesses --------------------------------------------------------------


def diagonal_generators(g: Group, aut_maps: list) -> list[tuple]:
    """Right and left translations by T's generators, automorphisms, inversion,
    as permutations of T's element indices."""
    n = len(g)
    gens = [tuple(g.mul(x, t) for x in range(n)) for t in g.gens]
    gens += [tuple(g.mul(g.inv[t], x) for x in range(n)) for t in g.gens]
    gens += [tuple(m) for m in aut_maps]
    gens.append(tuple(g.inv))
    return gens


def set_orbit(generators: list[tuple], points) -> set[tuple]:
    start = tuple(sorted(points))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for gen in generators:
                image = tuple(sorted(gen[p] for p in current))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


def multiset_counts(data: dict, n: int) -> list[int] | None:
    counts = [0] * n
    for key, mult in data.items():
        point = int(key)
        if not 0 <= point < n or mult < 0:
            return None
        counts[point] += mult
    return counts


def check_certificate(generators: list[tuple], n: int, cert: dict, constant: int) -> list[str]:
    """A witness (X, J): X and J nontrivial, |J| = n, and every image of X
    under the group has J-weight equal to the expected constant."""
    counts = multiset_counts(cert["multiset"], n)
    points = cert["set"]
    if counts is None or not all(0 <= p < n for p in points):
        return ["certificate names points outside the domain"]
    problems = []
    if sum(counts) != n:
        problems.append(f"|J| = {sum(counts)}, expected {n}")
    if not 2 <= len(set(points)) < n:
        problems.append("the witness set is trivial")
    if len(set(counts)) <= 1 or sum(1 for c in counts if c) <= 1:
        problems.append("the multiset is trivial")
    if cert["constant"] != constant:
        problems.append(f"constant {cert['constant']}, expected {constant}")
    weights = {sum(counts[p] for p in image) for image in set_orbit(generators, points)}
    if weights != {constant}:
        problems.append(f"image weights {sorted(weights)[:4]} are not all {constant}")
    return problems


def conjugacy_class(g: Group, x: int) -> set[int]:
    members = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for t in g.gens:
                z = g.conj(y, t)
                if z not in members:
                    members.add(z)
                    nxt.append(z)
        frontier = nxt
    return members


def check_refutation(generators: list[tuple], n: int, cert: dict) -> list[str]:
    """A refuted (X, J) on a permutation action: the reported violation must be
    the first one that holds, and its counterexample must re-check."""
    counts = multiset_counts(cert["multiset"], n)
    points = cert["set"]
    violation = cert["violation"]
    if n % sum(counts):
        return [] if violation == "cardinality" else [f"expected a cardinality refutation, got {violation}"]
    if violation != "non-constant":
        return [f"expected a non-constant refutation, got {violation}"]
    ce = cert["counterexample"]
    image = tuple(sorted(ce["image"]))
    weight = sum(counts[p] for p in image)
    problems = []
    if weight != ce["image_weight"] or weight == sum(counts[p] for p in points):
        problems.append("counterexample weight does not re-check")
    if image not in set_orbit(generators, points):
        problems.append("counterexample image is not in the set orbit")
    return problems


def point_orbit(generators: list[tuple], point: int) -> set[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        frontier = [gen[p] for p in frontier for gen in generators if gen[p] not in seen]
        seen.update(frontier)
    return seen


# --- large groups -----------------------------------------------------------


def check_group_data(name: str, order: int, classes: int, outer: int,
                     degrees: list[int]) -> list[str]:
    """Order, class number, |Out| and character degrees against the ATLAS."""
    want = ATLAS[name]
    problems = []
    for what, got, expected in (("order", order, want[0]), ("classes", classes, want[1]),
                                ("|Out|", outer, want[2])):
        if got != expected:
            problems.append(f"{name}: {what} {got}, ATLAS {expected}")
    if sorted(degrees) != want[3]:
        problems.append(f"{name}: degrees {sorted(degrees)}, ATLAS {want[3]}")
    if sum(d * d for d in degrees) != order:
        problems.append(f"{name}: squared degrees sum to {sum(d * d for d in degrees)}, not {order}")
    return problems

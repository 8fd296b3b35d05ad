"""Exact character tables and the character-theoretic witness test.

The table construction follows the classical modular approach: build the
class-sum multiplication matrices with no product per element (class_of
composed with the table's stored right multiplications by its generators
along the edges s -> g s of a greedy tree that reaches a member of every
class, one C-level pass per edge), diagonalise them simultaneously over a
prime field F_p whose multiplicative group contains all needed roots of unity,
starting from one fixed integer combination of them, read off each character
modulo p, then lift every entry to an exact cyclotomic integer through the
root-of-unity correspondence, one reduction modulo the cyclotomic polynomial
per entry.  The finished table is self-checked once, when it is first built
for a group table (row and column orthogonality, each sum with its rational
terms added as integers and the rest into one coefficient list reduced once,
and the degree sum), so downstream zero/equality tests never rest on an
unverified computation; later calls for that table reuse the checked table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from math import isqrt, lcm
from operator import mul

from .autos import AutomorphismGroup
from .cyclotomic import CyclotomicValue, _reduce, from_coefficients, render_value
from .diagonal import DiagonalGroup
from .errors import CapExceeded, VerificationInconsistency
from .perm import DEFAULT_SET_ORBIT_CAP, compose_images
from .tables import GroupTable
from .witness import Witness, constructed_witness, verify_diagonal

DEFAULT_CLASS_CAP = 60  # at most 256: _class_tensor counts class ids as bytes


# --- class algebra ---------------------------------------------------------

def _word_tree(table: GroupTable) -> tuple[dict[int, list[tuple[int, int]]], dict[int, int]]:
    """A tree on T rooted at the identity, as the edges (g, g s) out of each
    node s for table generators g, and one node of each class.  It grows
    greedily: a BFS from all its nodes at once finds the nearest element of a
    class not yet reached, and the path to it joins the tree."""
    k, gens, class_of = len(table.conjugacy_classes()), table.generator_indices, table._class_split[1]
    tree, first = {0: []}, {0: 0}
    while len(first) < k:
        queue, parent = list(tree), dict.fromkeys(tree)
        for s, g in ((s, g) for s in queue for g in gens):  # the queue grows as it is read
            t = table.multiply(g, s)
            if t not in parent:
                parent[t] = (s, g)
                queue.append(t)
                if class_of[t] not in first:
                    break
        while parent[t] is not None:
            s, g = parent[t]
            tree.setdefault(s, []).append((g, t))
            tree.setdefault(t, [])
            first.setdefault(class_of[t], t)
            t = s
    return tree, first


def _class_tensor(table: GroupTable) -> list[list[list[int]]]:
    """a[i][j][l], the number of x in class i with x^-1 r_l in class j, for r_l
    any member of class l (conjugating by t maps the solutions for r_l onto
    those for r_l^t): the y = x^-1 of the class i' inverse to i with y r_l in
    class j.  The members r_l are the nodes _word_tree picks, walked depth
    first from the identity: a child g s gets class_of(y g s) from its
    parent's class_of(y s) composed with the stored R_g, one C-level pass of
    class-id bytes per tree edge.  A node's array is dropped once its
    children's are made, so only those of pending siblings along one path are
    kept.  Each class's segment of class_of(y r_l) is counted as bytes (at
    most 256 classes).  Checked: class 0 is the identity, a[0][j][l] = [j = l];
    the algebra commutes, a[i][j][l] = a[j][i][l]; and counting the triples
    x y = z by x and z gives |C_l| a[i][j][l] = |C_j| a[i'][l][j]."""
    classes = table.conjugacy_classes()
    k = len(classes)
    tree, first = _word_tree(table)
    inverse = [table.inverse_class(i) for i in range(k)]
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    pending = [(0, table._class_split[1])]  # (s, class_of(y s) for every y), as bytes
    while pending:
        s, images = pending.pop()
        l = table.class_of(s)
        if first[l] == s:
            for i in range(k):
                segment = bytes(compose_images(classes[inverse[i]].members, images))
                for j in range(k):
                    a[i][j][l] = segment.count(j)
        for g, t in tree[s]:
            pending.append((t, bytes(compose_images(table.right_multiplication(g), images))))
    if any(a[0][j][l] != (j == l) for j in range(k) for l in range(k)):
        raise VerificationInconsistency("class 0 is not the identity of the class algebra")
    if any(a[i][j] != a[j][i] for i in range(k) for j in range(i)):
        raise VerificationInconsistency("class multiplication tensor is not commutative")
    if any(classes[l].size * a[i][j][l] != classes[j].size * a[inverse[i]][l][j]
           for i in range(k) for j in range(k) for l in range(k)):
        raise VerificationInconsistency("class multiplication tensor miscounts a class triple")
    return a


# --- small linear algebra over F_p ----------------------------------------

def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def _rref(rows: list[list[int]], p: int) -> list[list[int]]:
    mat = [r[:] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = _inv_mod(mat[r][c], p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r]


def _pivot_columns(basis: list[list[int]]) -> list[int]:
    return [next(c for c, v in enumerate(row) if v) for row in basis]


def _coords_in_basis(vec: list[int], basis: list[list[int]], pivots: list[int], p: int) -> list[int]:
    coords = [vec[c] for c in pivots]
    # the vector must actually lie in the span, or the splitting is broken
    for c in range(len(vec)):
        s = sum(coords[t] * basis[t][c] for t in range(len(basis))) % p
        if s != vec[c] % p:
            raise VerificationInconsistency("subspace is not invariant under a class matrix")
    return coords


def _char_poly(mat: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p, leading coefficient first.

    Faddeev-LeVerrier recurrence; valid because the chosen prime exceeds the
    matrix dimension, so every integer divided by stays invertible.
    """
    n = len(mat)
    coeffs = [1]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for step in range(1, n + 1):
        m = _mat_mul(mat, m, p)
        tr = sum(m[i][i] for i in range(n)) % p
        c = (-tr * _inv_mod(step, p)) % p
        coeffs.append(c)
        for i in range(n):
            m[i][i] = (m[i][i] + c) % p
    return coeffs


def _mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in bt] for row in a]


def _poly_roots(coeffs: list[int], p: int) -> list[int]:
    roots = []
    for lam in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * lam + c) % p
        if acc == 0:
            roots.append(lam)
    return roots


def _nullspace(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    reduced = _rref(mat, p)
    pivots = _pivot_columns(reduced)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, c in zip(reduced, pivots):
            vec[c] = (-row[f]) % p
        basis.append(vec)
    return basis


# --- prime selection -------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def dixon_prime(exponent: int, group_order: int, num_classes: int) -> int:
    """Smallest p = 1 (mod exponent) with p > 2*sqrt(|G|) and p > #classes.

    The last condition keeps the characteristic-polynomial recurrence valid;
    it only matters for groups with many classes relative to their order and
    never changes the prime for the built-in catalog.
    """
    bound = max(2 * isqrt(group_order) + 1, num_classes + 1)
    p = exponent + 1
    while True:
        if p >= bound and _is_prime(p):
            return p
        p += exponent
        if p > exponent * 10**6:
            raise VerificationInconsistency("no usable prime found in range")


def _primitive_root(p: int) -> int:
    factors = []
    n = p - 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for w in range(2, p):
        if all(pow(w, (p - 1) // q, p) != 1 for q in factors):
            return w
    raise VerificationInconsistency(f"no primitive root mod {p}")


# --- the table -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CharacterTable:
    group_label: str
    group_order: int
    prime: int
    class_names: tuple[str, ...]
    class_sizes: tuple[int, ...]
    class_element_orders: tuple[int, ...]
    degrees: tuple[int, ...]
    rows: tuple[tuple[CyclotomicValue, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def centralizer_order(self, cid: int) -> int:
        return self.group_order // self.class_sizes[cid]

    def to_json(self) -> dict:
        return {
            "group": self.group_label,
            "order": self.group_order,
            "prime": self.prime,
            "classes": [
                {"name": n, "size": s, "element_order": o}
                for n, s, o in zip(
                    self.class_names, self.class_sizes, self.class_element_orders
                )
            ],
            "degrees": list(self.degrees),
            "rows": [[v.to_json() for v in row] for row in self.rows],
        }

    def to_text(self) -> str:
        cells = [["", *self.class_names],
                 ["size", *(str(s) for s in self.class_sizes)]]
        for i, row in enumerate(self.rows):
            cells.append([f"X.{i + 1}", *(render_value(v) for v in row)])
        widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in cells
        )


_CHARACTER_TABLES = weakref.WeakKeyDictionary()  # each table's checked character table, dropped with it


def dixon_character_table(table: GroupTable) -> CharacterTable:
    """The character table of table, built and self-checked on the first call
    for it and returned again while the table lives.  A failed build
    (CapExceeded, VerificationInconsistency) is not kept: the next call raises again."""
    if table not in _CHARACTER_TABLES:
        _CHARACTER_TABLES[table] = _build_character_table(table)
    return _CHARACTER_TABLES[table]


def _build_character_table(table: GroupTable) -> CharacterTable:
    classes = table.conjugacy_classes()
    k = len(classes)
    if k > DEFAULT_CLASS_CAP:
        raise CapExceeded("conjugacy classes", DEFAULT_CLASS_CAP)
    n = len(table.elements)
    sizes = [c.size for c in classes]
    p = dixon_prime(table.exponent(), n, k)

    # eigenvector coordinates follow the canonical class order; matrix i sends
    # coordinate l to sum over j of a[i][j][l], reduced mod p where it is used
    matrices = _class_tensor(table)

    subspaces: list[list[list[int]]] = [
        [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    ]
    # one fixed combination of the class matrices usually splits every subspace at once
    combined = [[sum(i * matrices[i][r][c] for i in range(1, k)) for c in range(k)] for r in range(k)]
    for mat in [combined, *matrices[1:]]:
        if all(len(b) == 1 for b in subspaces):
            break
        refined: list[list[list[int]]] = []
        for basis in subspaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            pivots = _pivot_columns(basis)
            images = [
                [sum(map(mul, mat[r], vec)) % p for r in range(k)]
                for vec in basis
            ]
            coords = [_coords_in_basis(img, basis, pivots, p) for img in images]
            # restriction matrix: column j holds the coordinates of M b_j
            sub = [[coords[j][t] for j in range(len(basis))] for t in range(len(basis))]
            found = 0
            for lam in _poly_roots(_char_poly(sub, p), p):
                shifted = [row[:] for row in sub]
                for d in range(len(basis)):
                    shifted[d][d] = (shifted[d][d] - lam) % p
                lifted = [
                    [sum(w[t] * basis[t][c] for t in range(len(basis))) % p for c in range(k)]
                    for w in _nullspace(shifted, p)
                ]
                lifted = _rref(lifted, p)
                found += len(lifted)
                refined.append(lifted)
            if found != len(basis):
                raise VerificationInconsistency(
                    "class matrix failed to split a subspace completely"
                )
        subspaces = refined

    if len(subspaces) != k or any(len(b) != 1 for b in subspaces):
        raise VerificationInconsistency("simultaneous diagonalisation did not finish")

    inv_size = [_inv_mod(s, p) for s in sizes]
    inv_class = [table.inverse_class(l) for l in range(k)]
    characters_mod_p: list[tuple[int, list[int]]] = []
    for (vec,) in subspaces:
        if vec[0] == 0:
            raise VerificationInconsistency("eigenvector vanishes at the identity class")
        scale = _inv_mod(vec[0], p)
        v = [x * scale % p for x in vec]
        t = sum(v[l] * v[inv_class[l]] * inv_size[l] for l in range(k)) % p
        if t == 0:
            raise VerificationInconsistency("degenerate norm for an eigenvector")
        d_sq = n * _inv_mod(t, p) % p
        degree = next((d for d in range(1, isqrt(n) + 1) if d * d % p == d_sq), None)
        if degree is None:
            raise VerificationInconsistency("character degree not recoverable mod p")
        characters_mod_p.append((degree, v))

    if sum(d * d for d, _ in characters_mod_p) != n:
        raise VerificationInconsistency("degree squares do not sum to the group order")

    w = _primitive_root(p)
    orders = [table.element_order(c.representative) for c in classes]
    power_classes = [[table.power_class(l, u) for u in range(m)] for l, m in enumerate(orders)]
    rows: list[tuple[int, tuple[CyclotomicValue, ...]]] = []
    for degree, v in characters_mod_p:
        values: list[CyclotomicValue] = []
        for l, m in enumerate(orders):
            if m == 1:
                values.append(CyclotomicValue.from_int(degree))
                continue
            vals = [degree * v[c] * inv_size[c] % p for c in power_classes[l]]
            z = pow(w, (p - 1) // m, p)
            zi = _inv_mod(z, p)
            m_inv = _inv_mod(m, p)
            counts = []
            for key in range(m):
                zk = pow(zi, key, p)
                acc, t = 0, 1
                for u in range(m):
                    acc = (acc + vals[u] * t) % p
                    t = t * zk % p
                mk = acc * m_inv % p
                if mk > degree:
                    raise VerificationInconsistency(
                        "root-of-unity multiplicity exceeds the degree"
                    )
                counts.append(mk)
            if sum(counts) != degree:
                raise VerificationInconsistency("eigenvalue multiplicities do not fill the degree")
            if sum(c * pow(z, key, p) for key, c in enumerate(counts)) % p != vals[1]:
                raise VerificationInconsistency("lifted value does not reduce back mod p")
            values.append(from_coefficients(m, counts))
        rows.append((degree, tuple(values)))

    rows.sort(key=lambda r: (r[0], [(v.order, v.coeffs) for v in r[1]]))

    result = CharacterTable(
        group_label=table.name,
        group_order=n,
        prime=p,
        class_names=tuple(table.class_names()),
        class_sizes=tuple(sizes),
        class_element_orders=tuple(orders),
        degrees=tuple(r[0] for r in rows),
        rows=tuple(r[1] for r in rows),
    )
    if not row_orthogonality_holds(result):
        raise VerificationInconsistency("row orthogonality failed on a computed table")
    if not column_orthogonality_holds(result):
        raise VerificationInconsistency("column orthogonality failed on a computed table")
    return result


def _orthogonal(vectors, weights, norm) -> bool:
    """Whether sum_l weights[l] u[l] conj(v[l]) is norm(i) for u = v the i-th
    vector and 0 for two different vectors, checked exactly for every pair.
    Each entry, and its conjugate (exponents negated), is read once per call
    as its order m and its nonzero (exponent, coefficient) pairs, an integer
    as (1, [(0, c)]).  The terms with both factors rational are summed as
    ints, and a pair with no irrational entry is decided by that sum alone.
    For any other pair, with n the lcm of the orders at its irrational
    positions, the int sum less the expected value and every product there
    are added into one coefficient list of length n, an exponent e of order m
    counting as e n/m modulo n (Phi_n divides x^n - 1), and that list must
    reduce to 0 modulo Phi_n.  No CyclotomicValue is built."""
    forms = [[(v.order, [(e, c) for e, c in enumerate(v.coeffs) if c]) if v.order > 1
              else (1, [(0, v.coeffs[0])]) for v in u] for u in vectors]
    conjugates = [[(m, [(-e % m, c) for e, c in pairs] if m > 1 else pairs) for m, pairs in u] for u in forms]
    ints = [[0 if m > 1 else pairs[0][1] for m, pairs in u] for u in forms]
    irrational = [{l for l, (m, _) in enumerate(u) if m > 1} for u in forms]
    for i, u in enumerate(forms):
        for j in range(i, len(vectors)):
            total = sum(map(mul, weights, map(mul, ints[i], ints[j]))) - (norm(i) if i == j else 0)
            mixed, v = irrational[i] | irrational[j], conjugates[j]
            if not mixed:
                if total:
                    return False
                continue
            n = lcm(*(u[l][0] for l in mixed), *(v[l][0] for l in mixed))
            coeffs = [total] + [0] * (n - 1)
            for l in mixed:
                (m1, a), (m2, b), w = u[l], v[l], weights[l]
                s1, s2 = n // m1, n // m2
                for e1, c1 in a:
                    for e2, c2 in b:
                        coeffs[(e1 * s1 + e2 * s2) % n] += w * c1 * c2
            if any(_reduce(coeffs, n)):
                return False
    return True


def row_orthogonality_holds(ct: CharacterTable) -> bool:
    return _orthogonal(ct.rows, ct.class_sizes, lambda i: ct.group_order)


def column_orthogonality_holds(ct: CharacterTable) -> bool:
    columns = [[row[l] for row in ct.rows] for l in range(ct.num_classes)]
    return _orthogonal(columns, [1] * len(ct.rows), ct.centralizer_order)


# --- the character-theoretic witness test ----------------------------------

def class_orbit_partition(table: GroupTable, auts: AutomorphismGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of the automorphism group on conjugacy classes, as a partition."""
    k = len(table.conjugacy_classes())
    seen: set[int] = set()
    blocks = []
    for cid in range(k):
        if cid in seen:
            continue
        orbit = auts.class_orbit(cid)
        seen.update(orbit)
        blocks.append(tuple(sorted(orbit)))
    return tuple(blocks)


@dataclass(frozen=True)
class CharWitnessSpec:
    """A class triple that passed both conditions of the character test."""

    r_class: int
    s1_class: int
    s2_class: int


@dataclass(frozen=True)
class CharTripleRefutation:
    r_class: int
    s1_class: int
    s2_class: int
    violation: str
    detail: dict


def _separating(ct: CharacterTable, s1: int, s2: int) -> list[int]:
    """The characters whose values on s1 and s2 differ, in table order."""
    return [i for i, row in enumerate(ct.rows) if row[s1] != row[s2]]


def _not_vanishing(ct: CharacterTable, characters: list[int], orbit: tuple[int, ...]):
    """The first (character, class) with a nonzero value, characters in the
    given order and then the orbit's classes in order, or None if all vanish."""
    return next(((i, cid) for i in characters for cid in orbit if not ct.rows[i][cid].is_zero), None)


def character_triple_check(
    table: GroupTable,
    ct: CharacterTable,
    partition: tuple[tuple[int, ...], ...],
    r: int,
    s1: int,
    s2: int,
) -> CharWitnessSpec | CharTripleRefutation:
    """Test one (r, s1, s2) triple: equal class sizes for s1 and s2, and every
    character separating s1 from s2 must vanish on the whole automorphism
    orbit of r.  A refutation names the first character that does not, and
    the first class of the orbit where it does not."""
    if len({r, s1, s2}) != 3:
        raise ValueError("r, s1, s2 must be pairwise distinct classes")
    if ct.class_sizes[s1] != ct.class_sizes[s2]:
        return CharTripleRefutation(
            r, s1, s2, "class-size-mismatch",
            {"s1_size": ct.class_sizes[s1], "s2_size": ct.class_sizes[s2]},
        )
    orbit = next(block for block in partition if r in block)
    failure = _not_vanishing(ct, _separating(ct, s1, s2), orbit)
    if failure is None:
        return CharWitnessSpec(r, s1, s2)
    i, cid = failure
    return CharTripleRefutation(
        r, s1, s2, "character-not-vanishing",
        {"character_index": i, "class": ct.class_names[cid], "value": render_value(ct.rows[i][cid])},
    )


def character_triple_search(
    table: GroupTable,
    ct: CharacterTable,
    partition: tuple[tuple[int, ...], ...],
) -> list[CharWitnessSpec]:
    """All triples that character_triple_check passes, r ascending, then s1 < s2
    in class order.  The characters separating s1 from s2 are found once per
    pair of equal-size classes, and r's orbit is read from a dict."""
    k = ct.num_classes
    orbit = {cid: block for block in partition for cid in block}
    pairs = [(s1, s2, _separating(ct, s1, s2)) for s1 in range(k) for s2 in range(s1 + 1, k)
             if ct.class_sizes[s1] == ct.class_sizes[s2]]
    return [CharWitnessSpec(r, s1, s2) for r in range(k) for s1, s2, characters in pairs
            if r not in (s1, s2) and _not_vanishing(ct, characters, orbit[r]) is None]


def validate_character_witness(diag: DiagonalGroup, spec: CharWitnessSpec,
                               cap: int = DEFAULT_SET_ORBIT_CAP) -> Witness:
    """The witness (C_r, Omega + C_s1 - C_s2) over T = diag.table, built and
    re-verified on diag(T) by witness.constructed_witness through
    witness.verify_diagonal with the set-orbit cap; its constant must be the
    class size |C_r|."""
    classes = diag.table.conjugacy_classes()
    points = frozenset(classes[spec.r_class].members)
    outcome = constructed_witness(partial(verify_diagonal, diag, cap=cap), len(diag.table), points,
                                  classes[spec.s1_class].members, classes[spec.s2_class].members)
    if outcome.constant != len(points):
        raise VerificationInconsistency(f"character witness constant {outcome.constant} != class size {len(points)}")
    return outcome

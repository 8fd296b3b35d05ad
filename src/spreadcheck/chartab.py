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
per entry.  The finished table is self-checked before it is returned (row and
column orthogonality, each sum with its rational terms added as integers and
the rest through one cyclotomic sum of products, and the degree sum), so
downstream zero/equality tests never rest on an unverified computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul

from .autos import AutomorphismGroup
from .cyclotomic import CyclotomicValue, from_coefficients, render_value, sum_of_products
from .diagonal import DiagonalGroup
from .errors import CapExceeded, VerificationInconsistency
from .perm import compose_images
from .tables import GroupTable
from .witness import Multiset, Witness, verify_diagonal

DEFAULT_CLASS_CAP = 60  # at most 256: _class_tensor counts class ids as bytes


# --- class algebra ---------------------------------------------------------

def _word_tree(table: GroupTable) -> tuple[dict[int, list[tuple[int, int]]], dict[int, int]]:
    """A tree on T rooted at the identity, as the edges (g, g s) out of each
    node s for table generators g, and one node of each class.  It grows
    greedily: a BFS from all its nodes at once finds the nearest element of a
    class not yet reached, and the path to it joins the tree."""
    k, gens, class_of = len(table.conjugacy_classes()), table.generator_indices, table._class_of
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
    pending = [(0, table._class_of)]  # (s, class_of(y s) for every y), as bytes
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

@dataclass(eq=False)
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


def dixon_character_table(table: GroupTable) -> CharacterTable:
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
                kern = _nullspace(shifted, p)
                if not kern:
                    continue
                lifted = [
                    [sum(w[t] * basis[t][c] for t in range(len(basis))) % p for c in range(k)]
                    for w in kern
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
    vector and 0 for two different vectors.  Each vector is conjugated once.
    The terms with both factors rational are summed as ints; the others, and
    that partial sum less the expected value as a term with no factors, go
    through one sum_of_products, which must give 0."""
    ints = [[v.as_int() if v.is_rational else 0 for v in u] for u in vectors]
    irrational = [{l for l, v in enumerate(u) if not v.is_rational} for u in vectors]
    conjugates = [[v.conjugate() for v in u] for u in vectors]
    for i, u in enumerate(vectors):
        for j in range(i, len(vectors)):
            v = conjugates[j]
            rational = sum(map(mul, weights, map(mul, ints[i], ints[j])))
            terms = [(weights[l], (u[l], v[l])) for l in irrational[i] | irrational[j]]
            terms.append((rational - (norm(i) if i == j else 0), ()))
            if not sum_of_products(terms).is_zero:
                return False
    return True


def row_orthogonality_holds(ct: CharacterTable) -> bool:
    return _orthogonal(ct.rows, ct.class_sizes, lambda i: ct.group_order)


def column_orthogonality_holds(ct: CharacterTable) -> bool:
    columns = [[row[l] for row in ct.rows] for l in range(ct.num_classes)]
    return _orthogonal(columns, [1] * len(ct.rows), ct.centralizer_order)


# --- the character-theoretic witness test ----------------------------------

def class_orbit_partition(
    table: GroupTable, auts: AutomorphismGroup | None = None
) -> tuple[tuple[int, ...], ...]:
    """Orbits of the automorphism group on conjugacy classes, as a partition.

    With no automorphism data every class is its own block, which is the
    right degenerate reading for groups the search scaffolding feeds in.
    """
    k = len(table.conjugacy_classes())
    if auts is None:
        return tuple((cid,) for cid in range(k))
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
    orbit of r."""
    if len({r, s1, s2}) != 3:
        raise ValueError("r, s1, s2 must be pairwise distinct classes")
    if ct.class_sizes[s1] != ct.class_sizes[s2]:
        return CharTripleRefutation(
            r, s1, s2, "class-size-mismatch",
            {"s1_size": ct.class_sizes[s1], "s2_size": ct.class_sizes[s2]},
        )
    differing = [
        i for i in range(len(ct.rows)) if ct.rows[i][s1] != ct.rows[i][s2]
    ]
    orbit = next(block for block in partition if r in block)
    for i in differing:
        for cid in orbit:
            if not ct.rows[i][cid].is_zero:
                return CharTripleRefutation(
                    r, s1, s2, "character-not-vanishing",
                    {
                        "character_index": i,
                        "class": ct.class_names[cid],
                        "value": render_value(ct.rows[i][cid]),
                    },
                )
    return CharWitnessSpec(r, s1, s2)


def character_triple_search(
    table: GroupTable,
    ct: CharacterTable,
    partition: tuple[tuple[int, ...], ...],
) -> list[CharWitnessSpec]:
    """All passing triples, r ascending, then s1 < s2 in class order."""
    k = ct.num_classes
    found = []
    for r in range(k):
        for s1 in range(k):
            if s1 == r:
                continue
            for s2 in range(s1 + 1, k):
                if s2 == r:
                    continue
                if ct.class_sizes[s1] != ct.class_sizes[s2]:
                    continue
                outcome = character_triple_check(table, ct, partition, r, s1, s2)
                if isinstance(outcome, CharWitnessSpec):
                    found.append(outcome)
    return found


def validate_character_witness(diag: DiagonalGroup, spec: CharWitnessSpec) -> Witness:
    """Run the constructed (class, weighted multiset) pair over T = diag.table
    through the independent verifier on diag(T), witness.verify_diagonal, and
    confirm the constant equals the class size."""
    classes = diag.table.conjugacy_classes()
    n = len(diag.table)
    points = frozenset(classes[spec.r_class].members)
    j = (
        Multiset.uniform(n, 1)
        + Multiset.indicator(classes[spec.s1_class].members, n)
        - Multiset.indicator(classes[spec.s2_class].members, n)
    )
    outcome = verify_diagonal(diag, points, j)
    if not isinstance(outcome, Witness):
        raise VerificationInconsistency(f"character witness refuted: {outcome.violation}")
    if outcome.constant != len(points):
        raise VerificationInconsistency(f"character witness constant {outcome.constant} != class size {len(points)}")
    return outcome

"""The diagonal action of a simple group on itself, as a permutation group.

For a tabled group T the domain is T's own element indices, with index 0 the
identity.  The full diagonal group is generated by right translations x -> xt,
left translations x -> t^-1 x, automorphisms of T acting on indices, and the
inversion map x -> x^-1.  Its order is |T|^2 * |Out(T)| * 2.  A DiagonalGroup
builds that group when its group attribute is first read: it assembles the
generators, counts the order they generate by orbit-stabiliser on the table
(diagonal_order) and checks it against the formula.  No stabilizer chain of
degree |T| is built unless a caller asks the group for one.
"""

from __future__ import annotations

from functools import cached_property

from .autos import AutomorphismGroup, close_modulo_inner, is_automorphism
from .errors import VerificationInconsistency
from .perm import Permutation, PermutationGroup, compose_images
from .tables import GroupTable


def right_translation(table: GroupTable, t: int) -> Permutation:
    """The permutation x -> x t of element indices: the table's kernel R_t."""
    return Permutation._unchecked(table.right_multiplication(t))


def left_translation(table: GroupTable, t: int) -> Permutation:
    """The permutation x -> t^-1 x of element indices, read from R_t as
    t^-1 x = (x^-1 t)^-1."""
    return Permutation._unchecked(
        compose_images(compose_images(table.inverse, table.right_multiplication(t)), table.inverse))


def inversion_map(table: GroupTable) -> Permutation:
    return Permutation._unchecked(tuple(table.inverse))


class DiagonalGroup:
    """T acting on itself two-sidedly, extended by Aut(T) and inversion; T = 1
    is refused, as the order formula needs T > 1."""

    def __init__(self, table: GroupTable, automorphisms: AutomorphismGroup):
        if len(table) == 1:
            raise ValueError("the diagonal group diag(T) needs a nontrivial group T")
        self.table = table
        self.automorphisms = automorphisms
        self.label = f"diag({table.name or 'T'})"

    @cached_property
    def group(self) -> PermutationGroup:
        """The diagonal group on the indices of T, its order checked.

        Generator order is fixed: right translations by T's generators, then
        left translations, then one permutation per nontrivial automorphism
        coset, then inversion.  Inner automorphisms are omitted; they are
        products of matching left and right translations.
        """
        table, auts = self.table, self.automorphisms
        gens = [right_translation(table, t) for t in table.generator_indices]
        gens += [left_translation(table, t) for t in table.generator_indices]
        gens += [Permutation._unchecked(aut.mapping) for aut in auts.coset_representatives if not aut.is_identity]
        gens.append(inversion_map(table))
        group = PermutationGroup(gens, len(table))
        expected = len(table) ** 2 * auts.outer_order * 2
        actual = diagonal_order(table, group)
        if actual != expected:
            raise VerificationInconsistency(f"diagonal group order {actual} != |T|^2 * outer * 2 = {expected}")
        return group


def diagonal_order(table: GroupTable, group: PermutationGroup) -> int:
    """The order of a group G of permutations of T's indices, counted from its
    generators by orbit-stabiliser, for a T with trivial center.

    Each generator s is reduced to sigma_s = s rho_{s(0)}^-1, that is
    x -> s(x) s(0)^-1, with rho_t the right translation x -> x t; sigma_s
    fixes the identity.  Every sigma_s must be 1 (s is a right translation),
    an automorphism of T, or an automorphism followed by inversion iota; a
    map that is none of these raises.  Those with sigma_s = 1 are the right
    translations, and their s(0) must generate T, so T_R <= G.  Those whose
    sigma_s is conjugation by s(0)^-1 are the left translations
    x -> s(0) x, and their s(0) must generate T too, so T_L <= G and the
    inner automorphisms among the sigma_s generate Inn(T).  One Schreier-Sims
    run on T's own permutations, at its natural degree, checks each set of
    s(0); T_R <= G then shows G transitive.  Then:

    - N = T_R T_L has order |T|^2 (T_R meets T_L in the center), and it is
      normal in the group of all maps rho, automorphisms and iota, since an
      automorphism maps T_R and T_L to themselves and iota swaps them.
    - H = <sigma_s> lies in G, because T_R does, and contains Inn(T).  The
      stabiliser of the identity in N is Inn(T), so N cap H = Inn(T).
    - Each s = sigma_s rho_{s(0)} lies in the group N H, and N and H lie in
      G, so G = N H and |G| = |N| |H| / |N cap H| = |T|^2 [H : Inn(T)].

    [H : Inn(T)] is the number of cosets that close_modulo_inner finds from
    the checked arrays sigma_s or sigma_s iota, at most 2 |Out(T)|; no
    stabilizer chain is built and nothing of size |T|^2 is stored.
    """
    n = len(table)
    identity = tuple(range(n))
    rights = [table.right_multiplication(g) for g in table.generator_indices]
    right: list[int] = []  # s(0) of each right translation
    left: list[int] = []  # and of each left translation
    parts = []
    for k, s in enumerate(group.generators):
        w = s(0)
        w_inv = table.inverse[w]
        sigma = compose_images(s.images, table.right_multiplication(w_inv))
        if sigma == identity:
            right.append(w)
            continue
        if is_automorphism(table, rights, sigma):
            if all(sigma[g] == table.conjugate(g, w_inv) for g in table.generator_indices):
                left.append(w)
            else:
                parts.append((sigma.__getitem__, 0))
            continue
        sigma = compose_images(sigma, table.inverse)
        if not is_automorphism(table, rights, sigma):
            raise VerificationInconsistency(
                f"diagonal generator {k} is no translation times an automorphism or its inversion"
            )
        parts.append((sigma.__getitem__, 1))
    for side, elems in (("right", right), ("left", left)):
        if PermutationGroup([table.elements[w] for w in elems], table.group.degree).order() != n:
            raise VerificationInconsistency(
                f"the {side} translations among the generators do not generate T"
            )
    return n * n * len(close_modulo_inner(table, parts))

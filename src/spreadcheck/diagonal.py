"""The diagonal action of a simple group on itself, as a permutation group.

For a tabled group T the domain is T's own element indices, with index 0 the
identity.  The full diagonal group is generated by right translations x -> xt,
left translations x -> t^-1 x, automorphisms of T acting on indices, and the
inversion map x -> x^-1.  Its order is |T|^2 * |Out(T)| * 2, which the builder
verifies against the actual permutation group order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autos import AutomorphismGroup
from .errors import VerificationInconsistency
from .perm import Permutation, PermutationGroup
from .tables import GroupTable


def right_translation(table: GroupTable, t: int) -> Permutation:
    """The permutation x -> x t of element indices."""
    return Permutation._unchecked(tuple(table.multiply(x, t) for x in range(len(table))))


def left_translation(table: GroupTable, t: int) -> Permutation:
    """The permutation x -> t^-1 x of element indices."""
    tinv = table.inverse[t]
    return Permutation._unchecked(tuple(table.multiply(tinv, x) for x in range(len(table))))


def inversion_map(table: GroupTable) -> Permutation:
    return Permutation._unchecked(tuple(table.inverse))


@dataclass(frozen=True)
class DiagonalGroup:
    """T acting on itself two-sidedly, extended by Aut(T) and inversion."""

    base: GroupTable
    auts: AutomorphismGroup
    group: PermutationGroup

    @property
    def label(self) -> str:
        name = self.base.name or "T"
        return f"diag({name})"

    def degree(self) -> int:
        return len(self.base)


def build_diagonal_group(table: GroupTable, auts: AutomorphismGroup) -> DiagonalGroup:
    """Assemble the diagonal group on the indices of T and check its order.

    Generator order is fixed: right translations by T's generators, then left
    translations, then one permutation per nontrivial automorphism coset, then
    inversion.  Inner automorphisms are omitted; they are products of matching
    left and right translations.
    """
    gens: list[Permutation] = []
    for t in table.generator_indices:
        gens.append(right_translation(table, t))
    for t in table.generator_indices:
        gens.append(left_translation(table, t))
    for aut in auts.coset_representatives:
        if not aut.is_identity:
            gens.append(Permutation._unchecked(aut.mapping))
    gens.append(inversion_map(table))
    group = PermutationGroup(gens, len(table))
    expected = len(table) ** 2 * auts.outer_order * 2
    actual = group.order()
    if actual != expected:
        raise VerificationInconsistency(
            f"diagonal group order {actual} != |T|^2 * outer * 2 = {expected}"
        )
    return DiagonalGroup(table, auts, group)

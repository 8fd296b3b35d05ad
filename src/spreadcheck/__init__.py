"""spreadcheck: witness machinery for non-spreading finite permutation groups.

The package builds diagonal product actions of finite simple groups, verifies
set/multiset witness pairs against the defining constant-sum property, checks
the supplement condition A = B(A cap A^t) by exact subgroup arithmetic, counts
suborbits two independent ways, and computes exact character tables for the
character-theoretic witness test.
"""

from .autos import (
    Automorphism,
    AutomorphismGroup,
    automorphism_group_from_supplied,
    search_automorphism_group,
)
from .catalog import CatalogEntry, catalog_names, load_entry, parse_permutation
from .chartab import (
    CharacterTable,
    CharTripleRefutation,
    CharWitnessSpec,
    character_triple_check,
    character_triple_search,
    class_orbit_partition,
    dixon_character_table,
    validate_character_witness,
)
from .cyclotomic import CyclotomicValue, cyclotomic_polynomial
from .diagonal import DiagonalGroup
from .errors import CapExceeded, InvalidSubgroup, VerificationInconsistency
from .perm import Permutation, PermutationGroup
from .tables import ConjClass, GroupTable, build_group_table
from .witness import (
    Multiset,
    Refutation,
    SupplementReport,
    Witness,
    diagonal_witness,
    orbit_count_pair,
    supplement_property,
    two_point_stabilizer_trivial,
    verify_diagonal,
    verify_witness,
    witness_from_subgroup_pair,
)

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "AutomorphismGroup",
    "CapExceeded",
    "CatalogEntry",
    "CharacterTable",
    "CharTripleRefutation",
    "CharWitnessSpec",
    "ConjClass",
    "CyclotomicValue",
    "DiagonalGroup",
    "GroupTable",
    "InvalidSubgroup",
    "Multiset",
    "Permutation",
    "PermutationGroup",
    "Refutation",
    "SupplementReport",
    "VerificationInconsistency",
    "Witness",
    "automorphism_group_from_supplied",
    "build_group_table",
    "catalog_names",
    "character_triple_check",
    "character_triple_search",
    "class_orbit_partition",
    "cyclotomic_polynomial",
    "diagonal_witness",
    "dixon_character_table",
    "load_entry",
    "orbit_count_pair",
    "parse_permutation",
    "search_automorphism_group",
    "supplement_property",
    "two_point_stabilizer_trivial",
    "validate_character_witness",
    "verify_diagonal",
    "verify_witness",
    "witness_from_subgroup_pair",
    "__version__",
]

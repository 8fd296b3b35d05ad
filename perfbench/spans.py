"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each spreadcheck module from
outside the package, so the program itself carries no tracing code.  Every
call into a layer from another layer, or from the benchmark, becomes a span
with its name, start, end and parent.  A call from a layer into itself is
folded into the span already open for that layer, so each span covers one
visit to a layer and its self time is the work done there before control
passes to another layer.

Element-level methods (``GroupTable.multiply``, permutation and cyclotomic
arithmetic) are not wrapped: they run millions of times, and their time
counts towards the span that called them.  Their speed is measured apart by
the multiply-rate probe in ``run.py``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, span name); the layer is the part before the dot.
_OTHER = {
    "perm": ["PermutationGroup.stabilizer", "PermutationGroup.orbit", "PermutationGroup.orbits",
             "PermutationGroup.is_transitive"],
    "tables": ["close_subgroup", "generating_set", "subgroup_permutation_group",
               "conjugate_subgroup", "derived_subgroup", "centralizer", "normalizer",
               "point_stabilizer", "setwise_stabilizer", "sylow_subgroup", "sylow_normalizer",
               "product_size", "orbits_on_cosets", "cauchy_frobenius_count",
               "GroupTable.generating_pair", "GroupTable.exponent"],
    "autos": ["center", "automorphism_from_generator_images", "AutomorphismGroup.class_orbit"],
    "diagonal": ["subgroup_image_in_diagonal", "right_translation", "left_translation"],
    "witness": ["orbit_bound_holds"],
    "chartab": ["class_orbit_partition", "class_algebra_consistent", "class_mult_coefficient"],
    "catalog": ["load_permutation_group", "load_group_table", "table_for_entry",
                "load_automorphisms", "automorphisms_for_entry"],
}

ENTRY_POINTS = [
    ("perm", "PermutationGroup.order", "perm.schreier_sims"),
    ("perm", "PermutationGroup.contains", "perm.schreier_sims"),
    ("perm", "PermutationGroup.base", "perm.schreier_sims"),
    ("perm", "PermutationGroup.set_orbit", "perm.set_orbit"),
    ("perm", "PermutationGroup.elements", "perm.elements"),
    ("tables", "build_group_table", "tables.build"),
    ("tables", "GroupTable._compute_classes", "tables.classes"),
    ("tables", "validate_subgroup", "tables.validate_subgroup"),
    ("tables", "coset_space", "tables.coset_space"),
    ("autos", "search_automorphism_group", "autos.group"),
    ("autos", "automorphism_group_from_supplied", "autos.group"),
    ("diagonal", "build_diagonal_group", "diagonal.build"),
    ("witness", "diagonal_witness", "witness.diagonal"),
    ("witness", "verify_witness", "witness.verify"),
    ("witness", "witness_from_subgroup_pair", "witness.pair"),
    ("witness", "supplement_property", "witness.supplement"),
    ("witness", "orbit_count_pair", "witness.orbit_count"),
    ("witness", "two_point_stabilizer_trivial", "witness.two_point"),
    ("chartab", "dixon_character_table", "chartab.dixon"),
    ("chartab", "character_triple_search", "chartab.triple_search"),
    ("chartab", "character_triple_check", "chartab.char_witness"),
    ("chartab", "validate_character_witness", "chartab.char_witness"),
    ("chartab", "row_orthogonality_holds", "cyclotomic.orthogonality"),
    ("chartab", "column_orthogonality_holds", "cyclotomic.orthogonality"),
    ("catalog", "load_entry", "catalog.entry"),
    ("catalog", "load_entry_file", "catalog.entry"),
    ("catalog", "entry_from_json", "catalog.entry"),
    ("catalog", "validate_entry", "catalog.entry"),
    ("catalog", "resolve_subgroup", "catalog.recipe"),
    ("catalog", "subgroup_for_entry", "catalog.recipe"),
    ("cli", "main", "cli.command"),
] + [(mod, path, f"{mod}.other") for mod, paths in _OTHER.items() for path in paths]

# counters kept at span boundaries: span name -> counter of result sizes
COUNTERS = {"perm.set_orbit": "perm.set_orbit_images", "tables.coset_space": "tables.cosets"}


def _supplement_name(args, kwargs) -> str:
    scope = kwargs.get("scope", args[3] if len(args) > 3 else "T")
    return f"witness.supplement_{scope}"


class Tracer:
    """Keeps spans in memory while installed; ``uninstall`` restores the program."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0].startswith(layer + "."):
                return fn(*args, **kwargs)
            span_name = _supplement_name(args, kwargs) if name == "witness.supplement" else name
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                counts[counter] += len(result)
            return result

        traced.__wrapped__ = fn
        if hasattr(fn, "cache_clear"):  # catalog.clear_caches must keep working
            traced.cache_clear = fn.cache_clear
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "spreadcheck" and m]
        for mod_name, path, name in ENTRY_POINTS:
            module = sys.modules[f"spreadcheck.{mod_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"spreadcheck.{mod_name}.{path}")
                continue
            wrapped = self._wrap(original, name)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            # a function is also bound by name in every module that imported it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name.  Self time is span time minus
        the time covered by child spans; spans of one name never nest, so
        totals do not double count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - covered
        return total, own

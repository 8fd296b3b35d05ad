"""Rewrite perfbench/expected.json from the program's current output.

    python3 perfbench/regenerate.py

The file holds the values no independent source gives: the number of class
triples the character-test search finds in each base catalog group.  Run it
only when a change is meant to alter those counts, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spreadcheck import catalog, chartab  # noqa: E402

from workloads import EXPECTED_PATH, LargeGroups  # noqa: E402


def main() -> None:
    triples = {}
    for name in LargeGroups.groups:
        table = catalog.load_group_table(name)
        partition = chartab.class_orbit_partition(table, catalog.load_automorphisms(name))
        found = chartab.character_triple_search(table, chartab.dixon_character_table(table), partition)
        triples[name] = len(found)
        print(f"{name}: {len(found)} triples", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"triples": triples}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

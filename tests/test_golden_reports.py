"""Stored `--json` reports: every command below must print exactly the report
kept in tests/data/reports.json, apart from timing_ms.

The reports pin the certificates of diagonal witnesses, supplement checks over
T and Aut(T), orbit counts, two-point scans, subgroup-pair checks and class
lists on A5, PSL(2,7) and A7, the error reports of bad pairs on both pair
paths, and the report of a usage error under --json.  tests/data/diagonal_certificates.json pins a
sha256 over each certificate of DIAGONAL_COMMANDS (sorted-key JSON), witnesses
too large to store.  tests/data/coset_representatives.json pins, for
each base catalog group, a sha256 over the mappings of its automorphism coset
representatives in order, so every route to Aut(T) must keep picking the same
representatives.  tests/data/enumeration.json pins, for each base catalog
group, sha256 hashes of its table's element image tuples in index order, of its
inverse list and of its generator indices, so no change to the table's walk
moves an index.  tests/data/character_tables.json pins, for each base catalog
group, a sha256 over its Dixon character table's --json form (ct.to_json()
with sorted keys), so no change to the class algebra moves a character value.
tests/data/coset_spaces.json pins, for each labelled subgroup of each base
catalog group, a sha256 over its coset space's representatives and point_of,
so no change to the coset walk renumbers a coset.  tests/data/subgroups.json
pins, for each labelled subgroup of each base catalog group, a sha256 over its
sorted members and one over the generators kept for it, so no change to a
recipe moves a member or a kept generator.
tests/data/report_hashes.json pins a sha256 over the exit code and --json
report of each command of _sweep(), the sweep over every base catalog group,
supplement pair and two-point label that the other files leave out; in a
command, <name> stands for a file written for the run: a FILES entry, or the
witness that the command <...> certifies.
After a change that is meant to alter a certificate, a representative, an
index, a character table, a coset numbering or a subgroup, regenerate the eight files with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff.
"""

import functools
import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from spreadcheck import catalog
from spreadcheck.chartab import dixon_character_table
from spreadcheck.cli import main
from spreadcheck.tables import coset_space

DATA = Path(__file__).resolve().parent / "data" / "reports.json"
DIAGONAL = DATA.with_name("diagonal_certificates.json")
REPS = DATA.with_name("coset_representatives.json")
ENUMERATION = DATA.with_name("enumeration.json")
CHARACTER_TABLES = DATA.with_name("character_tables.json")
COSET_SPACES = DATA.with_name("coset_spaces.json")
SUBGROUPS = DATA.with_name("subgroups.json")
REPORT_HASHES = DATA.with_name("report_hashes.json")
BASE_GROUPS = [name for name in catalog.catalog_names() if not name.endswith("_3sets")]

COMMANDS = [
    "spreading diagonal-witness --group A5 --A A4 --B V4",
    "spreading diagonal-witness --group PSL(2,7) --A F21 --B C7",
    "spreading diagonal-witness --group A5 --A C5 --B 1",
    "spreading supplement --group A5 --A A4 --B V4",
    "spreading supplement --group A5 --A C5 --B 1 --scope Aut",
    "spreading supplement --group PSL(2,7) --A F21 --B C7 --scope Aut",
    "spreading supplement --group A7 --A stab3 --B stab3_even",
    "spreading supplement --group A7 --A stab3 --B stab3_even --scope Aut",
    "orbits count --group A5 --A D10 --B C5",
    "orbits count --group A7 --A stab3 --B stab3_even",
    "basesize two-check --group A5 --A C5",
    "basesize two-check --group PSL(2,7) --A C7",
    "basesize two-check --group A7 --A stab3",
    "spreading ab-check --group A5 --A A4 --B V4",
    "spreading ab-check --group A7 --A stab3 --B stab3_even",
    "spreading ab-check --group A5 --A A4 --B C5",
    "spreading ab-check --group A5 --A A4 --B A4",
    "spreading diagonal-witness --group A5 --A A4 --B C5",
    "spreading diagonal-witness --group A5 --A A4 --B A4",
    "spreading ab-check --group A5 --A A4 --B V4 --base 01",
    "group classes --group A5",
    "group classes --group PSL(2,7)",
]

DIAGONAL_COMMANDS = [
    "spreading diagonal-witness --group A7 --A stab3 --B stab3_even",
    "spreading diagonal-witness --group M11 --A M10 --B A6",
    "spreading diagonal-witness --group A8 --A stab3 --B stab3_even",
]

# the files _sweep() names: A5 written out as a group file, with A4 and V4 given by
# generators, and a witness that A5 refutes
FILES = {
    "A5copy": {
        "name": "A5copy",
        "degree": 5,
        "generators": [[[0, 1, 2, 3, 4]], [[2, 3, 4]]],
        "known_order": 60,
        "subgroups": {"A4": [[[0, 1, 3]], [[0, 1, 4]]], "V4": [[[0, 3], [1, 4]], [[0, 4], [1, 3]]]},
        "supplement_pairs": [["A4", "V4"]],
    },
    "refuted": {"set": [0, 1], "multiset": {"0": 1, "1": 1}},
}
# the first triple char-search finds; A8 (3 s), A9 and M12 take too long here
CHAR_TRIPLES = {
    "A5": "3A 5A 5B", "A6": "2A 5A 5B", "A7": "5A 7A 7B", "M11": "2A 11A 11B",
    "PSL(2,11)": "2A 5A 5B", "PSL(2,13)": "2A 7A 7B", "PSL(2,7)": "3A 7A 7B",
    "PSL(2,8)": "3A 7A 7B", "PSL(3,2)": "3A 7A 7B",
}


def _sweep() -> list[str]:
    """Every command whose report hash report_hashes.json pins; each witness
    is re-checked by verify-witness --diagonal from a file."""
    def recheck(group: str, command: str) -> str:
        return f"spreading verify-witness --diagonal {group} --witness <{command}>"
    commands = []
    for name in BASE_GROUPS:
        group = f"--group {name}"
        commands += [f"{c} {group}" for c in ("group info", "group classes", "group aut",
                                              "chartab compute", "spreading char-search")]
        entry = catalog.load_entry(name)
        for a, b in entry.supplement_pairs:
            pair = f"{group} --A {a} --B {b}"
            commands += [f"spreading supplement {pair}", f"spreading supplement {pair} --scope Aut",
                         f"orbits count {pair}"]
            if name not in ("A9", "M12"):
                witness = f"spreading diagonal-witness {pair}"
                commands += [witness, recheck(group, witness)]
        commands += [f"basesize two-check {group} --A {a}" for a in entry.two_point_labels]
        if name in CHAR_TRIPLES:
            r, s1, s2 = CHAR_TRIPLES[name].split()
            witness = f"spreading char-witness {group} --r {r} --s1 {s1} --s2 {s2}"
            commands += [witness, recheck(group, witness)]
    copy = "--file <A5copy>"
    return commands + [
        f"group info {copy}",
        f"group classes {copy}",
        f"spreading supplement {copy} --A A4 --B V4 --scope Aut",
        f"spreading diagonal-witness {copy} --A A4 --B V4",
        recheck(copy, "spreading diagonal-witness --group A5 --A A4 --B V4"),
        "spreading ab-check --group A5 --A A4 --B C5",
        "spreading verify-witness --group A5 --witness <refuted>",
    ]


@functools.cache
def _report(argv: tuple[str, ...]) -> tuple[int, dict]:
    """Exit code and --json report of one command line, without timing_ms; a
    command that several pins read runs once."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--json"])
    report = json.loads(out.getvalue())
    report.pop("timing_ms")
    return code, report


def _run(command: str) -> dict:
    """Exit code and --json report of one command, without timing_ms."""
    code, report = _report(tuple(command.split()))
    return {"command": command, "code": code, "report": report}


def _sha256_lines(rows) -> str:
    """sha256 over the rows, each written as one comma-separated line."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update((",".join(map(str, row)) + "\n").encode())
    return digest.hexdigest()


def _certificate_hash(command: str) -> str:
    """sha256 over the command's --json certificate as sorted-key JSON."""
    certificate = _run(command)["report"]["certificate"]
    return hashlib.sha256(json.dumps(certificate, sort_keys=True).encode()).hexdigest()


def _witness(command: str) -> dict:
    """The witness that a diagonal-witness or char-witness command certifies."""
    certificate = _run(command)["report"]["certificate"]
    return certificate.get("witness", certificate)


def _sweep_hash(command: str, directory: Path) -> str:
    """sha256 over the exit code and --json report of a _sweep() command, as
    sorted-key JSON without timing_ms.  Each <name> is a file written to
    directory, and the report's inputs give its name in place of its path."""
    argv, names = [], {}
    for part in re.split(r"(<[^>]*>)", command):
        if part.startswith("<"):
            text = json.dumps(FILES.get(part[1:-1]) or _witness(part[1:-1]))
            # named by its content, so one argv always reads one file
            path = directory / f"{hashlib.sha256(text.encode()).hexdigest()}.json"
            path.write_text(text)
            names[str(path)] = part
            argv.append(str(path))
        else:
            argv += part.split()
    code, report = _report(tuple(argv))
    report = dict(report, inputs={key: names.get(value, value) for key, value in report["inputs"].items()})
    return hashlib.sha256(json.dumps({"code": code, "report": report}, sort_keys=True).encode()).hexdigest()


def _rep_hash(name: str) -> str:
    """sha256 over the coset representatives' mappings, one line each, in order."""
    return _sha256_lines(rep.mapping for rep in catalog.load_automorphisms(name).coset_representatives)


def _enumeration_hashes(name: str) -> dict:
    """sha256 over the table's element images, its inverses and its generator
    indices, each in index order."""
    table = catalog.load_group_table(name)
    return {
        "elements": _sha256_lines(p.images for p in table.elements),
        "inverse": _sha256_lines([table.inverse]),
        "generator_indices": _sha256_lines([table.generator_indices]),
    }


def _character_table_hash(name: str) -> str:
    """sha256 over the group's Dixon character table as sorted-key JSON."""
    ct = dixon_character_table(catalog.load_group_table(name))
    return hashlib.sha256(json.dumps(ct.to_json(), sort_keys=True).encode()).hexdigest()


def _coset_space_hashes(name: str) -> dict:
    """For each labelled subgroup, sha256 over its coset space's
    representatives and point_of, each in order."""
    entry = catalog.load_entry(name)
    spaces = {label: coset_space(entry.table, entry.subgroup(label)) for label in sorted(entry.subgroups)}
    return {label: _sha256_lines([space.representatives, space.point_of]) for label, space in spaces.items()}


def _subgroup_hashes(name: str) -> dict:
    """For each labelled subgroup, sha256 over its sorted members and over
    the generators kept for it."""
    entry = catalog.load_entry(name)
    subgroups = {label: entry.subgroup(label) for label in sorted(entry.subgroups)}
    return {label: {"members": _sha256_lines([sorted(sub)]), "gens": _sha256_lines([sub.gens])}
            for label, sub in subgroups.items()}


def _stored() -> dict:
    return {case["command"]: case for case in json.loads(DATA.read_text(encoding="utf-8"))}


def test_every_command_has_a_stored_report():
    assert sorted(_stored()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_stored(command):
    assert _run(command) == _stored()[command]


@pytest.mark.parametrize("command", DIAGONAL_COMMANDS)
def test_certificate_matches_stored_hash(command):
    assert _certificate_hash(command) == json.loads(DIAGONAL.read_text(encoding="utf-8"))[command]


def test_every_sweep_command_has_a_stored_hash():
    assert list(json.loads(REPORT_HASHES.read_text(encoding="utf-8"))) == _sweep()


@pytest.mark.parametrize("command", _sweep())
def test_sweep_report_matches_stored_hash(command, tmp_path):
    assert _sweep_hash(command, tmp_path) == json.loads(REPORT_HASHES.read_text(encoding="utf-8"))[command]


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_coset_representatives_match_stored(name):
    assert _rep_hash(name) == json.loads(REPS.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_enumeration_matches_stored(name):
    assert _enumeration_hashes(name) == json.loads(ENUMERATION.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_character_table_matches_stored(name):
    assert _character_table_hash(name) == json.loads(CHARACTER_TABLES.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_coset_spaces_match_stored(name):
    assert _coset_space_hashes(name) == json.loads(COSET_SPACES.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_subgroups_match_stored(name):
    assert _subgroup_hashes(name) == json.loads(SUBGROUPS.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([_run(c) for c in COMMANDS], indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(COMMANDS)} reports to {DATA}")
    DIAGONAL.write_text(json.dumps({c: _certificate_hash(c) for c in DIAGONAL_COMMANDS}, indent=1)
                        + "\n", encoding="utf-8")
    print(f"wrote {len(DIAGONAL_COMMANDS)} certificate hashes to {DIAGONAL}")
    REPS.write_text(json.dumps({name: _rep_hash(name) for name in BASE_GROUPS}, indent=1)
                    + "\n", encoding="utf-8")
    print(f"wrote {len(BASE_GROUPS)} representative hashes to {REPS}")
    ENUMERATION.write_text(json.dumps({name: _enumeration_hashes(name) for name in BASE_GROUPS},
                                      indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(BASE_GROUPS)} enumeration hashes to {ENUMERATION}")
    CHARACTER_TABLES.write_text(json.dumps({name: _character_table_hash(name) for name in BASE_GROUPS},
                                           indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(BASE_GROUPS)} character table hashes to {CHARACTER_TABLES}")
    COSET_SPACES.write_text(json.dumps({name: _coset_space_hashes(name) for name in BASE_GROUPS},
                                       indent=1) + "\n", encoding="utf-8")
    print(f"wrote coset space hashes of {len(BASE_GROUPS)} groups to {COSET_SPACES}")
    SUBGROUPS.write_text(json.dumps({name: _subgroup_hashes(name) for name in BASE_GROUPS},
                                    indent=1) + "\n", encoding="utf-8")
    print(f"wrote subgroup hashes of {len(BASE_GROUPS)} groups to {SUBGROUPS}")
    with tempfile.TemporaryDirectory() as directory:
        hashes = {command: _sweep_hash(command, Path(directory)) for command in _sweep()}
    REPORT_HASHES.write_text(json.dumps(hashes, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} report hashes to {REPORT_HASHES}")

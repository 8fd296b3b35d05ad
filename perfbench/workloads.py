"""The three benchmark workloads.

Each workload names the catalog groups it loads in set-up, builds its
questions from a seeded random generator, answers them in ``run_round`` and
checks the answers in ``check`` with the benchmark's own arithmetic
(``checks.py``).  The program is always reached through module attributes
(``witness.supplement_property``, not a name imported from it), so that the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from itertools import combinations

from spreadcheck import catalog, chartab, cli, witness

import checks

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_groups(names, aut_names) -> None:
    """What a command pays before it can answer: entry validation, table,
    classes, automorphism group and subgroup recipes."""
    for name in names:
        entry = catalog.load_entry(name)
        catalog.load_group_table(name).conjugacy_classes()
        if name in aut_names:
            catalog.load_automorphisms(name)
        for label in entry.subgroups:
            catalog.resolve_subgroup(name, label)


def own_group(name: str) -> checks.Group:
    """The program's element list of a catalog group, accepted by the checker
    only if it is the group its generators generate."""
    table = catalog.load_group_table(name)
    entry = catalog.load_entry(name)
    order = checks.ATLAS[name][0] if name in checks.ATLAS else entry.known_order
    return checks.Group([p.images for p in table.elements],
                        [g.images for g in entry.generators], order)


def aut_maps(name: str) -> list[tuple]:
    return [aut.mapping for aut in catalog.load_automorphisms(name).coset_representatives]


class Workload:
    name = ""
    groups: tuple[str, ...] = ()
    aut_groups: tuple[str, ...] = ()
    setup_reps = 1

    def setup(self) -> None:
        load_groups(self.groups, self.aut_groups)

    def largest_group(self) -> str:
        return max(self.groups, key=lambda n: catalog.load_entry(n).known_order)


# --- subgroups ----------------------------------------------------------------

PAIRS = [
    ("A5", "A4", "V4"), ("A5", "D10", "C5"), ("A5", "C5", "1"), ("A6", "F36", "E9"),
    ("A7", "stab3", "stab3_even"), ("A8", "stab3", "stab3_even"), ("PSL(2,7)", "F21", "C7"),
    ("PSL(3,2)", "F21", "C7"), ("PSL(2,8)", "F56", "E8"), ("PSL(2,11)", "F55", "C11"),
    ("PSL(2,13)", "F78", "C13"), ("M11", "M10", "A6"), ("M12", "2xS5", "S5"),
]
TWO_POINT = [("A5", "C5"), ("A5", "A4"), ("PSL(2,7)", "C7")]


class Subgroups(Workload):
    """Supplement property over T and Aut, orbit counts, two-point screen."""

    name = "subgroups"
    groups = ("A5", "A6", "A7", "A8", "PSL(2,7)", "PSL(3,2)", "PSL(2,8)", "PSL(2,11)",
              "PSL(2,13)", "M11", "M12")
    aut_groups = groups

    def make_inputs(self, rng, workdir):
        questions = [(kind, pair) for pair in PAIRS for kind in ("T", "Aut", "orbits")]
        questions += [("two_point", key) for key in TWO_POINT]
        rng.shuffle(questions)
        return questions

    def run_round(self, questions):
        out = {}
        failed = 0
        for kind, key in questions:
            name = key[0]
            try:
                table = catalog.load_group_table(name)
                a = catalog.resolve_subgroup(name, key[1])
                if kind == "two_point":
                    out[kind, key] = witness.two_point_stabilizer_trivial(table, a)
                    continue
                b = catalog.resolve_subgroup(name, key[2])
                if kind == "orbits":
                    out[kind, key] = witness.orbit_count_pair(table, a, b)
                    continue
                auts = catalog.load_automorphisms(name) if kind == "Aut" else None
                report = witness.supplement_property(table, a, b, scope=kind, auts=auts)
                out[kind, key] = (report.holds, report.failing_element, report.failing_outer)
            except Exception as exc:  # a failed question is counted, not fatal
                out[kind, key] = ("error", type(exc).__name__)
                failed += 1
        return out, len(questions), failed

    def check(self, out):
        problems = []
        groups = {name: own_group(name) for name in self.groups}
        maps = {name: aut_maps(name) for name in self.groups}
        for name in self.groups:
            if not all(groups[name].is_automorphism(m) for m in maps[name]):
                problems.append(f"{name}: a supplied automorphism does not respect multiplication")
        for name, a_label, b_label in PAIRS:
            key = (name, a_label, b_label)
            answers = {kind: out[kind, key] for kind in ("T", "Aut", "orbits")}
            if any(ans and ans[0] == "error" for ans in answers.values()):
                continue
            problems += checks.check_pair(
                groups[name], name, a_label, b_label,
                catalog.resolve_subgroup(name, a_label), catalog.resolve_subgroup(name, b_label),
                maps[name], answers)
        for name, a_label in TWO_POINT:
            t = out["two_point", (name, a_label)]
            if not isinstance(t, tuple):
                problems += checks.check_two_point(
                    groups[name], f"{name} {a_label}", catalog.resolve_subgroup(name, a_label), t)
        # negative control: the identity never gives a trivial A meet A^t
        if not checks.check_two_point(groups["A5"], "control", catalog.resolve_subgroup("A5", "C5"), 0):
            problems.append("checker accepted t = identity as a two-point witness")
        return problems


# --- witnesses ----------------------------------------------------------------

# (group, A, B, |A|): every recorded pair with nontrivial B
DIAGONAL_PAIRS = [
    ("A5", "A4", "V4", 12), ("A5", "D10", "C5", 10), ("A6", "F36", "E9", 36),
    ("PSL(2,7)", "F21", "C7", 21), ("PSL(3,2)", "F21", "C7", 21), ("PSL(2,8)", "F56", "E8", 56),
    ("PSL(2,11)", "F55", "C11", 55), ("PSL(2,13)", "F78", "C13", 78),
]
CHAR_GROUPS = ("A5", "A6", "PSL(2,7)", "PSL(2,11)")
AB_CHECKS = [("A5", "A4", "V4"), ("A7", "stab3", "stab3_even")]
REFUTE_GROUPS = ("A5", "A5_3sets", "A6_3sets", "A7_3sets")
NATURAL_DEGREE = {"A5": 5, "A6": 6, "A7": 7}

A5_COPY = {
    "name": "A5copy",
    "degree": 5,
    "generators": [[[0, 1, 2, 3, 4]], [[2, 3, 4]]],
    "known_order": 60,
    "subgroups": {"A4": [[[0, 1, 3]], [[0, 1, 4]]], "V4": [[[0, 3], [1, 4]], [[0, 4], [1, 3]]]},
    "supplement_pairs": [["A4", "V4"]],
}
# malformed inputs; each must end in exit 2 with an error report
MALFORMED_FILES = {
    "key999": {"set": [0, 1], "multiset": {"999": 1, "0": 1}},
    "key-1": {"set": [0, 1], "multiset": {"-1": 1, "0": 1}},
    "degree-null": {"name": "Bad", "degree": None, "generators": [[[0, 1, 2]]], "known_order": 3},
    "list-top": [1, 2, 3],
}
MALFORMED = [
    ("key999", ["spreading", "verify-witness", "--group", "A5", "--witness"]),
    ("key-1", ["spreading", "verify-witness", "--group", "A5", "--witness"]),
    ("degree-null", ["group", "info", "--file"]),
    ("list-top", ["group", "info", "--file"]),
]


def call_cli(argv: list[str]):
    """Run one command in this process; (exit code, report) or ("exception", name)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--json"])
    except Exception as exc:  # an escaped exception is the outcome being measured
        return "exception", type(exc).__name__
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        return code, None
    report.pop("timing_ms", None)
    return code, report


class Witnesses(Workload):
    """Diagonal and character witnesses, refutations and malformed inputs, all
    through ``spreadcheck.cli.main``."""

    name = "witnesses"
    groups = ("A5", "A6", "A7", "PSL(2,7)", "PSL(3,2)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)",
              "A5_3sets", "A6_3sets", "A7_3sets")
    aut_groups = ("A5", "A6", "PSL(2,7)", "PSL(3,2)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)")
    setup_reps = 5

    def make_inputs(self, rng, workdir):
        self.workdir = workdir

        def path(stem):
            return os.path.join(workdir, f"{stem}.json")

        for stem, data in [("A5copy", A5_COPY), ("refute", {"set": [0, 1], "multiset": {"0": 1, "1": 1}}),
                           *MALFORMED_FILES.items()]:
            with open(path(stem), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        first = [(f"diag {g} {a} {b}", "diag", ["spreading", "diagonal-witness", "--group", g,
                                                "--A", a, "--B", b]) for g, a, b, _ in DIAGONAL_PAIRS]
        first += [(f"search {g}", "search", ["spreading", "char-search", "--group", g])
                  for g in CHAR_GROUPS]
        first += [(f"ab {g}", "ab", ["spreading", "ab-check", "--group", g, "--A", a, "--B", b])
                  for g, a, b in AB_CHECKS]
        first += [(f"refute {g}", "refute", ["spreading", "verify-witness", "--group", g,
                                             "--witness", path("refute")]) for g in REFUTE_GROUPS]
        first.append(("file A5copy", "diag", ["spreading", "diagonal-witness", "--file", path("A5copy"),
                                              "--A", "A4", "--B", "V4"]))
        first += [(f"malformed {stem}", "malformed", argv + [path(stem)]) for stem, argv in MALFORMED]
        rng.shuffle(first)
        char_order = list(CHAR_GROUPS)
        rng.shuffle(char_order)
        certified = [op[0] for op in first if op[1] == "diag"] + [f"charw {g}" for g in CHAR_GROUPS]
        rng.shuffle(certified)
        return first, char_order, certified

    def _cert_path(self, op_id: str) -> str:
        return os.path.join(self.workdir, re.sub(r"[^A-Za-z0-9]+", "_", op_id) + ".json")

    def run_round(self, inputs):
        first, char_order, certified = inputs
        out = {}
        certs = {}
        failed = 0

        def run(op_id, kind, argv):
            nonlocal failed
            out[op_id] = result = call_cli(argv)
            want = {"malformed": 2, "ab": 1, "refute": 1}.get(kind, 0)
            if result[0] != want or (kind == "malformed" and (result[1] or {}).get("verdict") != "error"):
                failed += 1
                return None
            return result[1]

        for op_id, kind, argv in first:
            report = run(op_id, kind, argv)
            if kind == "diag" and report is not None:
                certs[op_id] = report["certificate"]
        for g in char_order:
            search = out[f"search {g}"]
            if search[0] != 0:
                failed += 1
                continue
            t = search[1]["certificate"]["triples"][0]
            report = run(f"charw {g}", "charw", ["spreading", "char-witness", "--group", g,
                                                  "--r", t["r"], "--s1", t["s1"], "--s2", t["s2"]])
            if report is not None:
                certs[f"charw {g}"] = report["certificate"]["witness"]
        for op_id in certified:
            if op_id not in certs:
                failed += 1
                continue
            cert_path = self._cert_path(op_id)
            with open(cert_path, "w", encoding="utf-8") as fh:
                json.dump(certs[op_id], fh)
            source = (["--file", os.path.join(self.workdir, "A5copy.json")] if op_id == "file A5copy"
                      else ["--group", op_id.split(" ")[1]])
            run(f"verify {op_id}", "verify",
                ["spreading", "verify-witness", "--diagonal", *source, "--witness", cert_path])
        attempted = len(first) + len(char_order) + len(certified)
        return out, attempted, failed

    def check(self, out):
        problems = []
        expected = load_expected()["triples"]
        diag_gens = {}
        for name in self.aut_groups:
            g = own_group(name)
            maps = aut_maps(name)
            if not all(g.is_automorphism(m) for m in maps):
                problems.append(f"{name}: a supplied automorphism does not respect multiplication")
            if len(maps) != checks.ATLAS[name][2]:
                problems.append(f"{name}: |Out| = {len(maps)}, ATLAS {checks.ATLAS[name][2]}")
            diag_gens[name] = (g, checks.diagonal_generators(g, maps))

        def certificate(op_id, constant, name):
            result = out.get(op_id)
            if result is None or result[0] != 0:
                return None
            cert = result[1]["certificate"]
            if op_id.startswith("charw"):
                cert = cert["witness"]
            g, gens = diag_gens[name]
            problems.extend(f"{op_id}: {p}" for p in checks.check_certificate(gens, len(g), cert, constant))
            verify = out.get(f"verify {op_id}")
            if verify is None or verify[0] != 0 or verify[1]["certificate"]["constant"] != constant:
                problems.append(f"{op_id}: verify-witness did not confirm the certificate")
            return cert

        for name, a_label, b_label, order in DIAGONAL_PAIRS:
            op_id = f"diag {name} {a_label} {b_label}"
            cert = certificate(op_id, order, name)
            if cert is not None and frozenset(cert["set"]) != catalog.resolve_subgroup(name, a_label):
                problems.append(f"{op_id}: the witness set is not A")
            if op_id == "diag A5 A4 V4" and cert is not None:
                problems += self._negative_controls(diag_gens["A5"][1], cert)
                copy = certificate("file A5copy", order, name)
                if copy is not None and any(copy[k] != cert[k] for k in ("set", "multiset", "constant")):
                    problems.append("the --file copy of A5 gives another certificate")
        for name in CHAR_GROUPS:
            search = out[f"search {name}"]
            if search[0] == 0 and search[1]["certificate"]["count"] != expected[name]:
                problems.append(f"char-search {name}: {search[1]['certificate']['count']} triples, "
                                f"expected {expected[name]}")
            result = out.get(f"charw {name}")
            if result is None or result[0] != 0:
                continue
            members = result[1]["certificate"]["witness"]["set"]
            g = diag_gens[name][0]
            if checks.conjugacy_class(g, members[0]) != set(members):
                problems.append(f"charw {name}: the witness set is not a conjugacy class")
            certificate(f"charw {name}", len(members), name)
        problems += self._check_refutations(out)
        return problems

    def _check_refutations(self, out):
        problems = []
        for name, a_label, b_label in AB_CHECKS:
            code, report = out[f"ab {name}"]
            if code != 1:
                continue
            cert = report["certificate"]
            table = catalog.load_group_table(name)
            orbits = []
            for label in (a_label, b_label):
                members = catalog.resolve_subgroup(name, label)
                orbits.append(checks.point_orbit([table.elements[i].images for i in members], 0))
            k = len(orbits[0]) // len(orbits[1])
            if (cert["violation"] != "k-too-small" or k >= 2 or cert["counterexample"]["k"] != k
                    or cert["counterexample"]["A_orbit"] != sorted(orbits[0])):
                problems.append(f"ab {name}: refutation does not re-check")
        for name in REFUTE_GROUPS:
            code, report = out[f"refute {name}"]
            if code != 1:
                continue
            base, _, action = name.partition("_")
            gens = [g.images for g in catalog.load_entry(base).generators]
            if action == "3sets":
                gens = three_set_action(gens, NATURAL_DEGREE[base])
            n = len(gens[0])
            problems += [f"refute {name}: {p}" for p in checks.check_refutation(gens, n, report["certificate"])]
        return problems

    @staticmethod
    def _negative_controls(gens, cert):
        problems = []
        first_key = next(iter(cert["multiset"]))
        wrong_entry = dict(cert, multiset={**cert["multiset"], first_key: cert["multiset"][first_key] + 1})
        if not checks.check_certificate(gens, 60, wrong_entry, cert["constant"]):
            problems.append("checker accepted a certificate with one multiset entry changed")
        if not checks.check_certificate(gens, 60, dict(cert, constant=cert["constant"] + 1),
                                        cert["constant"] + 1):
            problems.append("checker accepted a certificate with a wrong constant")
        return problems


def three_set_action(gens: list[tuple], degree: int) -> list[tuple]:
    domain = list(combinations(range(degree), 3))
    index = {s: i for i, s in enumerate(domain)}
    return [tuple(index[tuple(sorted(g[x] for x in s))] for s in domain) for g in gens]


# --- large groups -------------------------------------------------------------


class LargeGroups(Workload):
    """Every base catalog group: Dixon table, orthogonality and triple search."""

    name = "large-groups"
    groups = ("A5", "A6", "A7", "A8", "A9", "PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "PSL(2,13)",
              "PSL(3,2)", "M11", "M12")
    aut_groups = groups

    def make_inputs(self, rng, workdir):
        order = list(self.groups)
        rng.shuffle(order)
        return order

    def run_round(self, order):
        out = {}
        failed = 0
        for name in order:
            try:
                table = catalog.load_group_table(name)
                ct = chartab.dixon_character_table(table)
                partition = chartab.class_orbit_partition(table, catalog.load_automorphisms(name))
                found = chartab.character_triple_search(table, ct, partition)
                orthogonal = (chartab.row_orthogonality_holds(ct)
                              and chartab.column_orthogonality_holds(ct))
                out[name] = (ct.group_order, list(ct.degrees), list(ct.class_sizes), len(found),
                             orthogonal)
            except Exception as exc:  # a failed question is counted, not fatal
                out[name] = ("error", type(exc).__name__)
                failed += 3
        return out, 3 * len(order), failed

    def check(self, out):
        problems = []
        expected = load_expected()["triples"]
        for name in self.groups:
            if out[name][0] == "error":
                continue
            order, degrees, sizes, triples, orthogonal = out[name]
            table = catalog.load_group_table(name)
            outer = catalog.load_automorphisms(name).outer_order
            problems += checks.check_group_data(name, len(table), len(sizes), outer, degrees)
            if order != len(table) or sum(sizes) != len(table) or any(len(table) % s for s in sizes):
                problems.append(f"{name}: class sizes do not partition the group")
            if not orthogonal:
                problems.append(f"{name}: orthogonality failed")
            if triples != expected[name]:
                problems.append(f"{name}: {triples} class triples, expected {expected[name]}")
        # negative control: one degree off must be caught
        if not checks.check_group_data("A5", 60, 5, 2, [1, 3, 3, 4, 6]):
            problems.append("checker accepted a wrong degree list")
        return problems


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (Subgroups, Witnesses, LargeGroups)}

"""End-to-end command line checks, run in process."""

import copy
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spreadcheck
from spreadcheck import catalog, cli, perm, tables, witness
from spreadcheck.cli import main
from spreadcheck.diagonal import DiagonalGroup

D10_JSON = {
    "name": "D10ext",
    "degree": 5,
    "generators": [[[0, 1, 2, 3, 4]], [[1, 4], [2, 3]]],
    "known_order": 10,
    "subgroups": {"C5": [[[0, 1, 2, 3, 4]]]},
}

# A5 written out as a group file, with A4 and V4 given by generators instead of
# recipes; the same copy the benchmark's witnesses workload reads through --file
A5_COPY = {
    "name": "A5copy",
    "degree": 5,
    "generators": [[[0, 1, 2, 3, 4]], [[2, 3, 4]]],
    "known_order": 60,
    "subgroups": {"A4": [[[0, 1, 3]], [[0, 1, 4]]], "V4": [[[0, 3], [1, 4]], [[0, 4], [1, 3]]]},
    "supplement_pairs": [["A4", "V4"]],
}


def test_every_exported_name_imports_once():
    """Each name in the package's __all__ appears there once, and a star
    import gives every one of them."""
    names = spreadcheck.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from spreadcheck import *", namespace)
    assert set(names) <= namespace.keys()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


REPORT_KEYS = {"command", "inputs", "verdict", "certificate", "timing_ms"}


def _malformed_argv(tmp_path, command: str, data) -> list[str]:
    """The command line that reads data: a --set value, or a witness or group
    file.  A string is written to the file as it stands, for JSON text that a
    dict cannot hold."""
    if command == "ab-check":
        return ["spreading", "ab-check", "--group", "A5", "--A", "A4", "--B", "V4", "--set", data]
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    if command == "verify-witness":
        return ["spreading", "verify-witness", "--group", "A5", "--witness", str(path)]
    return ["group", "info", "--file", str(path)]


def _forbid_diagonal_build(monkeypatch) -> None:
    """Make reading any DiagonalGroup's group fail the test."""
    def no_build(diag):
        raise AssertionError(f"{diag.label} built")

    monkeypatch.setattr(DiagonalGroup, "group", property(no_build))


class TestReports:
    def test_diagonal_witness_verified(self, capsys):
        code, report = run_json(
            capsys, "spreading", "diagonal-witness", "--group", "A5", "--A", "A4", "--B", "V4"
        )
        assert code == 0
        assert set(report) == REPORT_KEYS
        assert report["command"] == "spreading diagonal-witness"
        assert report["verdict"] == "verified"
        cert = report["certificate"]
        assert cert["verified"] is True
        assert cert["group"] == "diag(A5)"
        assert cert["constant"] == 12
        assert len(cert["set"]) == 12
        assert sum(cert["multiset"].values()) == 60
        assert report["inputs"]["A"] == "A4"

    def test_human_readable_output(self, capsys):
        code, out = run(
            capsys, "spreading", "diagonal-witness", "--group", "A5", "--A", "A4", "--B", "V4"
        )
        assert code == 0
        assert out.startswith("[verified] spreading diagonal-witness")
        assert "constant = 12" in out

    def test_reports_are_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            _, report = run_json(capsys, "spreading", "char-search", "--group", "A5")
            report.pop("timing_ms")
            runs.append(json.dumps(report, sort_keys=True))
        assert runs[0] == runs[1]


    @pytest.mark.parametrize("command", [
        "group classes --group M11",
        "spreading char-search --group PSL(2,11)",
        "spreading supplement --group M12 --A 2xS5 --B S5 --scope Aut",
        "spreading diagonal-witness --group PSL(2,13) --A F78 --B C13",
    ])
    def test_reports_do_not_depend_on_the_hash_seed(self, command):
        """Table elements are bytes, whose hashes follow PYTHONHASHSEED, so a
        report that iterated a set of them would change with the seed: two
        processes with different seeds print the same report, timing_ms aside."""
        src = str(Path(spreadcheck.__file__).resolve().parents[1])
        reports = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-m", "spreadcheck", *command.split(), "--json"],
                                  env=env, capture_output=True, timeout=120, check=False)
            assert done.returncode in (0, 1), done.stderr
            reports.append(re.sub(rb'\n *"timing_ms": \d+,?', b"", done.stdout))
        assert b'"certificate"' in reports[0] and b"timing_ms" not in reports[0]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["group classes --group A5", "chartab compute --group A8"])
    def test_a_closed_output_pipe_exits_2_without_a_traceback(self, command):
        """Exit 1 means refuted, so a reader that stops early must not turn a
        report into exit 1 and a traceback: the pipe is closed before the
        command prints, and it exits 2 with nothing on stderr.  The A8
        character table's report (5.5 kB) is longer than the 4096-byte
        blocks in which Python writes its standard output to a pipe."""
        src = str(Path(spreadcheck.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "spreadcheck", *command.split(),
                                   "--json"], env={**os.environ, "PYTHONPATH": src}, stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=120, check=False)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, b"")


class TestGroupCommands:
    def test_info(self, capsys):
        code, report = run_json(capsys, "group", "info", "--group", "A5")
        assert code == 0
        cert = report["certificate"]
        assert cert["name"] == "A5"
        assert cert["degree"] == 5
        assert cert["order"] == 60
        assert cert["transitive"] is True
        assert cert["subgroups"] == ["A4", "C5", "D10", "V4"]

    def test_classes(self, capsys):
        code, report = run_json(capsys, "group", "classes", "--group", "A5")
        assert code == 0
        rows = report["certificate"]["classes"]
        assert [r["name"] for r in rows] == ["1A", "5A", "5B", "2A", "3A"]
        assert [r["size"] for r in rows] == [1, 12, 12, 15, 20]
        assert [r["element_order"] for r in rows] == [1, 5, 5, 2, 3]

    def test_aut(self, capsys):
        code, report = run_json(capsys, "group", "aut", "--group", "A5")
        assert code == 0
        cert = report["certificate"]
        assert cert == {"group": "A5", "order": 120, "inner_order": 60, "outer_order": 2}


class TestChartabCommands:
    def test_compute(self, capsys):
        code, report = run_json(capsys, "chartab", "compute", "--group", "A5")
        assert code == 0
        cert = report["certificate"]
        assert cert["prime"] == 31
        assert cert["degrees"] == [1, 3, 3, 4, 5]
        assert cert["rows"][0] == [1, 1, 1, 1, 1]

    def test_compute_text(self, capsys):
        code, out = run(capsys, "chartab", "compute", "--group", "A5")
        assert code == 0
        assert "X.1" in out and "5A" in out


class TestSpreadingCommands:
    def test_supplement_refuted(self, capsys):
        code, report = run_json(
            capsys, "spreading", "supplement", "--group", "A5", "--A", "C5", "--B", "1"
        )
        assert code == 1
        cert = report["certificate"]
        assert report["verdict"] == "refuted"
        assert cert["holds"] is False
        assert cert["scope"] == "T"
        assert cert["failing_element"] == 2

    def test_supplement_verified_aut_scope(self, capsys):
        code, report = run_json(
            capsys, "spreading", "supplement", "--group", "A5",
            "--A", "A4", "--B", "V4", "--scope", "Aut",
        )
        assert code == 0
        assert report["certificate"]["holds"] is True
        assert report["certificate"]["scope"] == "Aut"

    def test_ab_check_natural_action_fails(self, capsys):
        code, report = run_json(
            capsys, "spreading", "ab-check", "--group", "A5", "--A", "A4", "--B", "V4"
        )
        assert code == 1
        cert = report["certificate"]
        assert cert["violation"] == "k-too-small"
        assert cert["counterexample"]["k"] == 1

    @pytest.mark.parametrize(
        "group,a_label,b_label,degree",
        [("A5", "D10", "C5", 5), ("A6", "F36", "E9", 6), ("PSL(3,2)", "F21", "C7", 7)],
    )
    def test_ab_check_transitive_a_is_set_trivial(self, capsys, group, a_label, b_label, degree):
        """With A transitive on Omega the default X = base^A is all of Omega:
        a refutation with verify_witness's keys, not an error."""
        argv = ["spreading", "ab-check", "--group", group, "--A", a_label, "--B", b_label]
        code, report = run_json(capsys, *argv)
        assert code == 1
        cert = report["certificate"]
        assert cert["violation"] == "set-trivial"
        assert cert["set"] == list(range(degree))
        assert cert["counterexample"] == {"set_size": degree, "domain_size": degree}
        # an explicit --set keeps its own check
        full = ",".join(str(p) for p in range(degree))
        code, report = run_json(capsys, *argv, "--set", full)
        assert code == 2
        assert report["certificate"] == {"error": "ValueError",
                                         "message": "the point set must be nonempty and proper"}

    def test_char_witness_verified(self, capsys):
        code, report = run_json(
            capsys, "spreading", "char-witness", "--group", "A5",
            "--r", "3A", "--s1", "5A", "--s2", "5B",
        )
        assert code == 0
        cert = report["certificate"]
        assert cert["triple"] == {"r": "3A", "s1": "5A", "s2": "5B"}
        assert cert["witness"]["constant"] == 20

    def test_char_witness_refuted(self, capsys):
        code, report = run_json(
            capsys, "spreading", "char-witness", "--group", "A5",
            "--r", "2A", "--s1", "5A", "--s2", "5B",
        )
        assert code == 1
        assert report["certificate"]["violation"] == "character-not-vanishing"

    def test_char_search(self, capsys):
        code, report = run_json(capsys, "spreading", "char-search", "--group", "A5")
        assert code == 0
        cert = report["certificate"]
        assert cert["count"] == 1
        assert cert["triples"] == [{"r": "3A", "s1": "5A", "s2": "5B"}]

    def test_verify_witness_roundtrip(self, capsys, tmp_path):
        code, report = run_json(
            capsys, "spreading", "diagonal-witness", "--group", "A5", "--A", "D10", "--B", "C5"
        )
        assert code == 0
        cert = report["certificate"]
        witness_file = tmp_path / "w.json"
        witness_file.write_text(json.dumps(cert))
        code, report = run_json(
            capsys, "spreading", "verify-witness", "--group", "A5",
            "--diagonal", "--witness", str(witness_file),
        )
        assert code == 0
        assert report["certificate"]["constant"] == 10

    def test_verify_witness_rejects_tampering(self, capsys, tmp_path):
        code, report = run_json(
            capsys, "spreading", "diagonal-witness", "--group", "A5", "--A", "D10", "--B", "C5"
        )
        cert = report["certificate"]
        point = cert["set"][0]
        cert["multiset"][str(point)] = cert["multiset"].get(str(point), 0) + 1
        witness_file = tmp_path / "w.json"
        witness_file.write_text(json.dumps(cert))
        code, report = run_json(
            capsys, "spreading", "verify-witness", "--group", "A5",
            "--diagonal", "--witness", str(witness_file),
        )
        assert code == 1
        assert report["verdict"] == "refuted"
        assert report["certificate"]["violation"] == "cardinality"


class TestOrbitAndBaseCommands:
    def test_orbits_count(self, capsys):
        code, report = run_json(
            capsys, "orbits", "count", "--group", "A7", "--A", "stab3", "--B", "stab3_even"
        )
        assert code == 0
        cert = report["certificate"]
        assert cert["A_orbits"] == cert["B_orbits"] == 4
        assert cert["equal"] is True

    def test_two_check_found(self, capsys):
        code, report = run_json(capsys, "basesize", "two-check", "--group", "A5", "--A", "C5")
        assert code == 0
        cert = report["certificate"]
        assert cert["found"] is True
        assert cert["t"] == 2

    def test_two_check_not_found(self, capsys):
        code, report = run_json(capsys, "basesize", "two-check", "--group", "A5", "--A", "A4")
        assert code == 1
        assert report["certificate"]["found"] is False


def _spreadsheet_letters(count: int) -> list[str]:
    """A, ..., Z, AA, ..., AZ, BA, ...: the first count class letters."""
    alphabet = [chr(c) for c in range(ord("A"), ord("Z") + 1)]
    names = alphabet + [a + b for a in alphabet for b in alphabet]
    assert count <= len(names)
    return names[:count]


class TestFileRoute:
    @pytest.mark.parametrize(
        "name,generators,degree,order,last",
        [
            ("C2^5", [[[2 * i, 2 * i + 1]] for i in range(5)], 10, 32, {2: "AE"}),
            ("C4xC3xC25", [[[0, 1, 2, 3]], [[4, 5, 6]], [list(range(7, 32))]], 32, 300,
             {300: "CB", 100: "AN", 75: "AN", 50: "T", 2: "A"}),
        ],
    )
    def test_class_names_run_on_past_z(self, capsys, tmp_path, name, generators, degree, order, last):
        """An abelian group has one class per element, so an element order can
        have more than 26 classes: their letters run on as AA, AB, ..., and
        every name leads class_by_name back to its class."""
        path = tmp_path / "abelian.json"
        path.write_text(json.dumps(
            {"name": name, "degree": degree, "generators": generators, "known_order": order}
        ))
        code, report = run_json(capsys, "group", "classes", "--file", str(path))
        assert code == 0
        rows = report["certificate"]["classes"]
        assert len(rows) == order
        by_order: dict[int, list[str]] = {}
        for row in rows:
            by_order.setdefault(row["element_order"], []).append(row["name"])
        for element_order, names in by_order.items():
            letters = _spreadsheet_letters(len(names))
            assert names == [f"{element_order}{x}" for x in letters]
        assert {o: by_order[o][-1] for o in last} == {o: f"{o}{x}" for o, x in last.items()}
        table = catalog.load_entry_file(path).table
        assert [row["name"] for row in rows] == table.class_names()
        for cid, class_name in enumerate(table.class_names()):
            assert table.class_by_name(class_name) == cid

    def test_group_info_from_file(self, capsys, tmp_path):
        path = tmp_path / "D10ext.json"
        path.write_text(json.dumps(D10_JSON))
        code, report = run_json(capsys, "group", "info", "--file", str(path))
        assert code == 0
        assert report["certificate"]["order"] == 10

    def test_orbit_counts_from_file(self, capsys, tmp_path):
        path = tmp_path / "D10ext.json"
        path.write_text(json.dumps(D10_JSON))
        code, report = run_json(
            capsys, "orbits", "count", "--file", str(path), "--A", "C5", "--B", "1"
        )
        assert code == 0
        cert = report["certificate"]
        assert cert["A_orbits"] == cert["B_orbits"] == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["spreading", "diagonal-witness", "--A", "A4", "--B", "V4"],
            ["spreading", "supplement", "--A", "A4", "--B", "V4", "--scope", "T"],
            ["spreading", "supplement", "--A", "A4", "--B", "V4", "--scope", "Aut"],
            ["orbits", "count", "--A", "A4", "--B", "V4"],
            ["basesize", "two-check", "--A", "A4"],
            ["group", "aut"],
            ["spreading", "char-search"],
            ["spreading", "verify-witness", "--diagonal"],
        ],
        ids=" ".join,
    )
    def test_file_copy_gives_the_catalog_certificate(self, capsys, tmp_path, command):
        copy_path = tmp_path / "A5copy.json"
        copy_path.write_text(json.dumps(A5_COPY))
        if "verify-witness" in command:
            _, report = run_json(
                capsys, "spreading", "diagonal-witness", "--group", "A5", "--A", "A4", "--B", "V4"
            )
            witness_path = tmp_path / "w.json"
            witness_path.write_text(json.dumps(report["certificate"]))
            command = command + ["--witness", str(witness_path)]
        code, by_group = run_json(capsys, *command, "--group", "A5")
        file_code, by_file = run_json(capsys, *command, "--file", str(copy_path))
        assert code in (0, 1)
        assert (file_code, by_file["verdict"]) == (code, by_group["verdict"])
        renamed = json.dumps(by_file["certificate"], sort_keys=True).replace("A5copy", "A5")
        assert renamed == json.dumps(by_group["certificate"], sort_keys=True)

    def test_generator_free_file_is_the_trivial_group(self, capsys, tmp_path):
        """"generators": [] and one identity generator give the same trivial
        group, on one point or on three.  Its generating pair is (0, 0), so
        "group aut" finds Aut(1) = 1 and "char-search" searches and finds no
        triple."""
        commands = ("group classes", "chartab compute", "group aut", "spreading char-search")
        for degree in (1, 3):
            reports = {}
            for stem, generators in (("empty", []), ("identity", [[]])):
                path = tmp_path / f"{stem}{degree}.json"
                path.write_text(json.dumps({"name": "One", "degree": degree, "generators": generators,
                                            "known_order": 1}))
                for command in commands:
                    reports[stem, command] = run_json(capsys, *command.split(), "--file", str(path))
            for command in commands:
                code, report = reports["empty", command]
                assert code == (1 if command == "spreading char-search" else 0)
                assert report["certificate"] == reports["identity", command][1]["certificate"]
            assert reports["empty", "chartab compute"][1]["certificate"]["rows"] == [[1]]
            assert reports["empty", "group aut"][1]["certificate"] == {
                "group": "One", "order": 1, "inner_order": 1, "outer_order": 1}
            assert reports["empty", "spreading char-search"][1]["certificate"] == {
                "group": "One", "count": 0, "triples": []}

    def test_diagonal_commands_refuse_the_trivial_group(self, capsys, tmp_path):
        """diag(T) needs T > 1: verify-witness --diagonal is a usage error
        from DiagonalGroup, and diagonal-witness finds no proper pair
        B < A < T before it makes diag(T)."""
        group = tmp_path / "one.json"
        group.write_text(json.dumps({"name": "One", "degree": 1, "generators": [], "known_order": 1}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"set": [0], "multiset": {"0": 1}}))
        code, report = run_json(capsys, "spreading", "verify-witness", "--diagonal", "--file", str(group),
                                "--witness", str(witness))
        assert (code, report["verdict"]) == (2, "error")
        assert report["certificate"]["error"] == "ValueError"
        assert "nontrivial" in report["certificate"]["message"]
        code, report = run_json(capsys, "spreading", "diagonal-witness", "--file", str(group),
                                "--A", "1", "--B", "1")
        assert (code, report["verdict"]) == (2, "error")
        assert report["certificate"]["error"] == "InvalidSubgroup"

    @pytest.mark.parametrize("points,multiset,message", [
        ([0, 1], {"60": 1, "0": 1}, "multiset point '60' outside 0..59"),
        ([0, 1], {"01": 1, "0": 1}, "multiset point '01' is not a canonical integer"),
        ([0, 60], {"1": 1, "0": 1}, "witness 'set' point 60 outside 0..59"),
        ([0, -1], {"1": 1, "0": 1}, "witness 'set' point -1 outside 0..59"),
    ], ids=["key-past-T", "key-leading-zero", "set-past-T", "set-negative"])
    def test_diagonal_witness_is_read_before_diag_is_built(self, capsys, tmp_path, monkeypatch,
                                                           points, multiset, message):
        """verify-witness --diagonal checks its witness against the |T|
        points of diag(T) before it builds diag(T), so a malformed file is
        reported, with the point it names, without the build."""
        _forbid_diagonal_build(monkeypatch)
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"set": points, "multiset": multiset}))
        code, report = run_json(capsys, "spreading", "verify-witness", "--group", "A5", "--diagonal",
                                "--witness", str(witness))
        assert code == 2
        assert report["certificate"] == {"error": "ValueError", "message": message}

    def test_refusals_never_build_diag(self, capsys, monkeypatch):
        """A char-witness triple that fails the character test and a
        diagonal-witness pair that is not B normal in A < T are refuted
        without the degree-|T| group of diag(T)."""
        _forbid_diagonal_build(monkeypatch)
        code, report = run_json(capsys, "spreading", "char-witness", "--group", "A5",
                                "--r", "2A", "--s1", "5A", "--s2", "5B")
        assert (code, report["certificate"]["violation"]) == (1, "character-not-vanishing")
        code, report = run_json(capsys, "spreading", "diagonal-witness", "--group", "A5",
                                "--A", "V4", "--B", "A4")
        assert (code, report["certificate"]["error"]) == (2, "InvalidSubgroup")


class TestErrorPaths:
    def test_unknown_group(self, capsys):
        code, report = run_json(capsys, "group", "info", "--group", "Z99")
        assert code == 2
        assert report["verdict"] == "error"
        assert report["certificate"]["error"] == "ValueError"

    def test_missing_file(self, capsys):
        code, report = run_json(capsys, "group", "info", "--file", "/no/such/entry.json")
        assert code == 2
        assert report["certificate"]["error"] in {"OSError", "FileNotFoundError"}

    def test_table_degree_limit(self, capsys, tmp_path):
        """A table holds each element's points as bytes, so a group of degree
        257 loads (group info reads no table) but every command that builds
        its table exits 2 with a ValueError naming the limit; degree 256 is
        tabled."""
        for degree in (256, 257):
            path = tmp_path / f"C{degree}.json"
            path.write_text(json.dumps({"name": f"C{degree}", "degree": degree,
                                        "generators": [list(range(1, degree)) + [0]], "known_order": degree}))
        code, report = run_json(capsys, "group", "classes", "--file", str(tmp_path / "C256.json"))
        assert (code, len(report["certificate"]["classes"])) == (0, 256)
        code, report = run_json(capsys, "group", "info", "--file", str(path))
        assert (code, report["certificate"]["order"]) == (0, 257)
        for command in ("group classes", "group aut", "chartab compute", "spreading char-search"):
            code, report = run_json(capsys, *command.split(), "--file", str(path))
            assert (code, report["verdict"]) == (2, "error")
            assert report["certificate"]["error"] == "ValueError"
            assert "degree is at most 256; got 257" in report["certificate"]["message"]

    def test_cap_exceeded(self, capsys):
        # a cap of 0 is a cap, not "no cap"
        for cap in ("3", "0"):
            code, report = run_json(
                capsys, "spreading", "diagonal-witness", "--group", "A5",
                "--A", "A4", "--B", "V4", "--cap", cap,
            )
            assert code == 2
            assert report["certificate"]["error"] == "CapExceeded"
            assert report["inputs"]["cap"] == int(cap)

    @pytest.mark.parametrize(
        "command,data",
        [
            ("verify-witness", {"set": [0, 1], "multiset": {"999": 1, "0": 1}}),
            ("verify-witness", {"set": [0, 1], "multiset": {"-1": 1, "0": 1}}),
            ("verify-witness", {"set": [0, 1], "multiset": {"1": 1.5, "0": 1}}),
            ("group-file", dict(D10_JSON, degree=None)),
            ("group-file", dict(D10_JSON, degree="5")),
            ("group-file", [1, 2, 3]),
            ("verify-witness", {"set": [0, None], "multiset": {"1": 1, "0": 1}}),
            ("verify-witness", {"set": [0, 1.7], "multiset": {"1": 1, "0": 1}}),
            ("verify-witness", {"set": [0, True], "multiset": {"1": 1, "0": 1}}),
            ("group-file", dict(D10_JSON, generators=5)),
            ("group-file", dict(D10_JSON, subgroups=[1])),
            ("group-file", dict(D10_JSON, supplement_pairs=5)),
            ("group-file", dict(D10_JSON, generators=[[[0, 1, 2, 3, 4]], [[2, 3, 4.5]]])),
            ("group-file", dict(D10_JSON, generators=[[[0, 1, 2, 3, 4]], [0, 1.0, 3, 4, 2]])),
            ("group-file", dict(D10_JSON, subgroups={"C5": [[0, 1.0, 2, 3, 4]]})),
            ("group-file", dict(D10_JSON, generators=[[[0, 1, 2, 3, 4]], [[2, 3, True]]])),
            ("group-file", dict(D10_JSON, generators=[[[0, 1, 2, 3, 4]], [[0, 1], 2, 3, 4, 0]])),
            ("group-file", dict(D10_JSON, name=None)),
            ("group-file", dict(D10_JSON, supplement_pairs=[["C5", None]])),
            ("group-file", dict(D10_JSON, supplement_pairs=[["C5", "1", "C5"]])),
            ("group-file", dict(D10_JSON, two_point_labels=[5])),
            ("verify-witness", {"set": [0, 1], "multiset": {"01": 1, "1": 1, "0": 3}}),
            ("verify-witness", {"set": [0, 1], "multiset": {"+1": 1, "0": 3}}),
            ("verify-witness", {"set": [0, 1], "multiset": {" 1": 1, "0": 3}}),
            ("verify-witness", {"set": [0, 1], "multiset": {"0_1": 1, "0": 3}}),
            ("ab-check", "0,99"),
            ("ab-check", "0,-1"),
            ("ab-check", "01,1"),
            ("ab-check", ""),
            ("ab-check", "0,0,1"),
            ("verify-witness", {"set": [0, 0, 1], "multiset": {"0": 1, "1": 4}}),
            ("verify-witness", '{"set": [0, 1], "multiset": {"0": 1, "0": 4, "1": 0}}'),
            ("group-file", '{"name": "D10ext", "degree": 5, "degree": 6, "generators": [],'
                           ' "known_order": 1}'),
            ("ab-check", "a,1"),
            ("verify-witness", {"set": [0, 1], "multiset": {"x": 1, "0": 3}}),
            ("verify-witness", {"set": [0, 1], "multiset": {"1" * 5000: 1, "0": 3}}),
            ("group-file", dict(D10_JSON, aut_generators=[])),
            ("group-file", dict(D10_JSON, aut_generators=None)),
        ],
        ids=["key-999", "key-minus-1", "fractional-multiplicity", "degree-null",
             "degree-string", "top-level-list", "set-entry-null", "set-entry-fractional",
             "set-entry-bool", "generators-int", "subgroups-list", "supplement-pairs-int",
             "cycle-point-fractional", "image-fractional", "subgroup-image-fractional",
             "cycle-point-bool", "cycles-mixed-with-images", "name-null", "pair-label-null", "pair-three-labels",
             "two-point-label-int", "key-leading-zero",
             "key-plus-sign", "key-space", "key-underscore", "set-point-99",
             "set-point-minus-1", "set-point-leading-zero", "set-empty", "set-point-repeated",
             "witness-point-repeated", "multiset-key-repeated", "group-key-repeated",
             "set-point-letter", "key-letter", "key-5000-digits", "aut-generators-empty",
             "aut-generators-null"],
    )
    def test_malformed_input_is_an_error_report(self, capsys, tmp_path, command, data):
        code, report = run_json(capsys, *_malformed_argv(tmp_path, command, data))
        assert code == 2
        assert report["verdict"] == "error"
        assert report["certificate"]["error"] == "ValueError"

    @pytest.mark.parametrize("command", ["verify-witness", "group-file"])
    def test_a_deeply_nested_file_is_an_error_report(self, capsys, tmp_path, command):
        """json.load gives up on deep nesting with a RecursionError; the file
        is refused with exit 2, never read as a refutation (exit 1)."""
        depth = 200_000
        code, report = run_json(capsys, *_malformed_argv(tmp_path, command, "[" * depth + "]" * depth))
        assert (code, report["verdict"]) == (2, "error")
        assert report["certificate"] == {"error": "ValueError",
                                          "message": f"{tmp_path / 'input.json'} is nested too deeply to read"}

    @pytest.mark.parametrize(
        "command,data,message",
        [
            ("ab-check", "1,0,1", "repeated --set point 1"),
            ("verify-witness", {"set": [0, 1, 0], "multiset": {"0": 1, "1": 4}},
             "repeated witness 'set' point 0"),
            ("verify-witness", '{"set": [0, 1], "multiset": {"0": 1, "0": 4, "1": 0}}',
             "repeated JSON key '0'"),
            ("group-file", '{"name": "D10ext", "degree": 5, "degree": 6, "generators": [],'
                           ' "known_order": 1}', "repeated JSON key 'degree'"),
        ],
        ids=["set-point", "witness-point", "multiset-key", "group-key"],
    )
    def test_a_repeat_is_named(self, capsys, tmp_path, command, data, message):
        code, report = run_json(capsys, *_malformed_argv(tmp_path, command, data))
        assert code == 2
        assert report["certificate"] == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize(
        "command,data,message",
        [
            ("ab-check", "a,1", "--set point 'a' is not a canonical integer"),
            ("ab-check", "", "--set point '' is not a canonical integer"),
            ("ab-check", "01,1", "--set point '01' is not a canonical integer"),
            ("verify-witness", {"set": [0, 1], "multiset": {"x": 1, "0": 3}},
             "multiset point 'x' is not a canonical integer"),
            ("verify-witness", {"set": [0, 1], "multiset": {"1" * 5000: 1, "0": 3}},
             "multiset point '111111111111...1111111111111' is not a canonical integer"),
        ],
        ids=["set-point-letter", "set-empty", "set-point-leading-zero", "multiset-key-letter",
             "multiset-key-5000-digits"],
    )
    def test_a_non_integer_point_is_named(self, capsys, tmp_path, command, data, message):
        code, report = run_json(capsys, *_malformed_argv(tmp_path, command, data))
        assert code == 2
        assert report["certificate"] == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize(
        "data,message",
        [
            (dict(D10_JSON, subgroups={"1": [[[0, 1, 2]]]}),
             "subgroup label '1' is reserved for the trivial subgroup"),
            (dict(D10_JSON, supplement_pairs=[["NOPE", "NADA"]]),
             "label 'NOPE' names no subgroup; available: ['C5'] and '1'"),
            (dict(D10_JSON, two_point_labels=["ZZ"]), "label 'ZZ' names no subgroup; available: ['C5'] and '1'"),
        ],
        ids=["defines-1", "pair-label-unknown", "two-point-label-unknown"],
    )
    def test_a_bad_subgroup_label_is_named(self, capsys, tmp_path, data, message):
        """A group file may not redefine the trivial subgroup "1", which every
        command would read as {1} all the same, and may not list a label that
        names no subgroup."""
        code, report = run_json(capsys, *_malformed_argv(tmp_path, "group-file", data))
        assert code == 2
        assert report["certificate"] == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize(
        "data,argv,message",
        [
            (dict(D10_JSON, subgroups={"C5": [[[0, 1, 2, 3, 4]]], "bad": [[[0, 1]]]}),
             ["basesize", "two-check", "--A", "bad"], "subgroup generator does not lie in D10ext"),
            (dict(D10_JSON, aut_generators=[[[[0, 1]], [[1, 4], [2, 3]]]]),
             ["group", "aut"], "supplied automorphism image does not lie in D10ext"),
        ],
        ids=["subgroup-generator", "automorphism-image"],
    )
    def test_a_permutation_outside_the_group_is_refused(self, capsys, tmp_path, data, argv, message):
        path = tmp_path / "D10ext.json"
        path.write_text(json.dumps(data))
        code, report = run_json(capsys, *argv, "--file", str(path))
        assert code == 2
        assert report["certificate"] == {"error": "InvalidSubgroup", "message": message}

    def test_a_catalog_file_must_give_its_own_name(self, capsys, tmp_path, monkeypatch):
        """--group Foo would otherwise certify a report for the group Bar."""
        (tmp_path / "Foo.json").write_text(json.dumps(dict(D10_JSON, name="Bar")))
        monkeypatch.setenv(catalog.ENV_CATALOG_DIR, str(tmp_path))
        code, report = run_json(capsys, "group", "info", "--group", "Foo")
        assert code == 2
        assert report["certificate"] == {"error": "ValueError", "message": "catalog file Foo.json names group 'Bar'"}

    @pytest.mark.parametrize("key", ["aut_generator", "Name", "subgroup"])
    def test_an_unknown_group_file_key_is_named(self, capsys, tmp_path, key):
        """A misspelt optional key would otherwise be ignored: "aut_generator"
        would make the automorphism group searched instead of read."""
        code, report = run_json(capsys, *_malformed_argv(tmp_path, "group-file", dict(D10_JSON, **{key: []})))
        assert code == 2
        assert report["certificate"] == {
            "error": "ValueError",
            "message": f"unknown group file key {key!r}; known keys: name, degree, generators, known_order, "
                       "aut_generators, subgroups, supplement_pairs, two_point_labels"}

    @pytest.mark.parametrize("value,message", [
        ([], "'aut_generators' must list at least one automorphism; leave it out to search"),
        (None, "'aut_generators' must be a JSON list, got NoneType"),
    ], ids=["empty", "null"])
    def test_an_empty_aut_generators_is_named(self, capsys, tmp_path, value, message):
        """An empty or null list of supplied automorphisms is not read as a
        missing key, which would make group aut search Aut(T)."""
        path = tmp_path / "A5copy.json"
        path.write_text(json.dumps(dict(A5_COPY, aut_generators=value)))
        code, report = run_json(capsys, "group", "aut", "--file", str(path))
        assert code == 2
        assert report["certificate"] == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("base", ["01", "+1", " 1", "1_0"], ids=["leading-zero", "plus-sign",
                                                                    "space", "underscore"])
    def test_base_must_be_canonical_decimal(self, capsys, base):
        argv = ["spreading", "ab-check", "--group", "A5", "--A", "A4", "--B", "V4", "--base"]
        assert main(argv + [base, "--json"]) == 2
        capsys.readouterr()
        # the canonical spelling runs, and is reported as a JSON integer
        code, report = run_json(capsys, *argv, "1")
        assert code == 1
        assert report["inputs"]["base"] == 1

    @pytest.mark.parametrize("cap", ["01", "+5", " 7", "1_0", "-1", "x"],
                             ids=["leading-zero", "plus-sign", "space", "underscore", "negative",
                                  "letter"])
    def test_cap_must_be_canonical_nonnegative_decimal(self, capsys, cap):
        argv = ["spreading", "ab-check", "--group", "A5", "--A", "A4", "--B", "V4", "--cap"]
        code, report = run_json(capsys, *argv, cap)
        assert code == 2
        assert report["certificate"] == {
            "error": "UsageError", "message": f"argument --cap: invalid nonnegative value: {cap!r}"}
        # the canonical spelling runs, and is reported as a JSON integer
        for canonical in (10, 0):
            code, report = run_json(capsys, *argv, str(canonical))
            assert code == 1
            assert report["inputs"]["cap"] == canonical

    def test_parser_is_reused_unchanged(self, capsys):
        """One parser serves every call in a process: a usage error reads the
        same before and after a command that parsed and ran."""
        bad = ["spreading", "ab-check", "--group", "A5", "--A", "A4", "--cap", "01", "--json"]
        seen = []
        for argv in (bad, ["group", "info", "--group", "A5", "--json"], bad):
            code = main(argv)
            captured = capsys.readouterr()
            report = json.loads(captured.out)
            report.pop("timing_ms")
            seen.append((code, report, captured.err))
        assert cli._build_parser() is cli._build_parser()
        assert seen[1][0] == 0 and seen[1][2] == ""
        assert seen[0] == seen[2]
        assert seen[0][0] == 2
        assert seen[0][1]["certificate"]["error"] == "UsageError"
        assert seen[0][2].endswith("error: argument --cap: invalid nonnegative value: '01'\n")

    def test_cap_rejected_where_not_honoured(self, capsys):
        assert main(["orbits", "count", "--group", "A5", "--A", "A4", "--B", "V4", "--cap", "5"]) == 2
        assert main(["spreading", "supplement", "--group", "A5", "--A", "C5", "--B", "1",
                     "--cap", "5"]) == 2
        # commands without --cap still report it, as null, among their inputs
        code, report = run_json(capsys, "orbits", "count", "--group", "A5", "--A", "A4", "--B", "V4")
        assert code == 0
        assert report["inputs"]["cap"] is None

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["group"]) == 2
        assert main(["group", "info"]) == 2  # needs --group or --file
        assert main(["group", "info", "--group", "A5", "--file", "x.json"]) == 2
        assert main(["group", "info", "--group", "A5", "--bogus"]) == 2

    def test_unrecognized_argument_report_names_the_command(self, capsys):
        argv = ["group", "info", "--group", "A5", "--bogus"]
        assert main(argv) == 2
        plain = capsys.readouterr()
        assert plain.err.startswith("usage: spreadcheck [-h]")
        assert plain.err.endswith("spreadcheck: error: unrecognized arguments: --bogus\n")
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["command"] == "group info"
        assert report["verdict"] == "error"
        assert report["certificate"] == {"error": "UsageError",
                                         "message": "unrecognized arguments: --bogus"}
        assert main(argv + ["--json"]) == 2
        assert capsys.readouterr().err == plain.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--A", "A4", "--B", "V4", "--base", "x"], "argument --base: invalid decimal value: 'x'"),
            (["--A", "A4", "--B", "V4", "--base", "01"],
             "argument --base: invalid decimal value: '01'"),
            (["--A", "A4", "--B", "V4", "--cap", "x"], "argument --cap: invalid nonnegative value: 'x'"),
            (["--B", "V4"], "the following arguments are required: --A"),
        ],
        ids=["base-x", "base-leading-zero", "cap-x", "missing-A"],
    )
    def test_usage_error_under_json_is_a_report(self, capsys, argv, message):
        argv = ["spreading", "ab-check", "--group", "A5", *argv]
        assert main(argv) == 2
        plain = capsys.readouterr()
        assert plain.out == ""
        assert plain.err.startswith("usage: spreadcheck spreading ab-check")
        assert plain.err.endswith(f"spreadcheck spreading ab-check: error: {message}\n")
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["command"] == "spreading ab-check"
        assert report["verdict"] == "error"
        assert report["certificate"] == {"error": "UsageError", "message": message}
        assert report["inputs"] == {"argv": argv + ["--json"]}
        # the usage line on stderr is the same with --json
        assert main(argv + ["--json"]) == 2
        assert capsys.readouterr().err == plain.err


@pytest.mark.parametrize(
    "argv",
    [
        ["spreading", "supplement", "--group", "A7", "--A", "stab3", "--B", "stab3_even"],
        ["spreading", "supplement", "--group", "A7", "--A", "stab3", "--B", "stab3_even",
         "--scope", "Aut"],
        ["orbits", "count", "--group", "M11", "--A", "M10", "--B", "A6"],
        ["basesize", "two-check", "--group", "A5", "--A", "C5"],
        ["spreading", "diagonal-witness", "--group", "A5", "--A", "A4", "--B", "V4"],
        ["spreading", "ab-check", "--group", "A7", "--A", "stab3", "--B", "stab3_even"],
    ],
    ids=["supplement-T", "supplement-Aut", "orbits-count", "two-check", "diagonal-witness",
         "ab-check"],
)
def test_resolved_subgroups_are_not_closed_again(capsys, monkeypatch, argv):
    """Once an entry has loaded its automorphisms and resolved its labels, a
    command closes no subgroup, except one image of A per non-identity
    automorphism coset representative over Aut, which diagonal-witness decides
    by.  The order count of diag(T) reuses the centralizers that loading the
    automorphisms closed."""
    entry = catalog.load_entry(argv[3])
    for flag in ("--A", "--B"):
        if flag in argv:
            entry.subgroup(argv[argv.index(flag) + 1])
    reps = entry.automorphisms.coset_representatives
    allowed = len(reps) - 1 if "Aut" in argv or "diagonal-witness" in argv else 0
    closures = 0
    closure = tables._closure

    def counting(*args):
        nonlocal closures
        closures += 1
        return closure(*args)

    monkeypatch.setattr(tables, "_closure", counting)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert closures <= allowed


@pytest.mark.parametrize("name,a_label,b_label,code", [("A7", "stab3", "stab3_even", 0),
                                                       ("A5", "C5", "1", 1)])
def test_diagonal_witness_walks_the_set_orbit_once(capsys, monkeypatch, name, a_label, b_label, code):
    """diagonal-witness decides its pair by the supplement property over Aut,
    so it walks one set orbit, of A under diag(T): verify_witness's walk for
    a witness, the walk that locates the first failing image for a
    refutation."""
    entry = catalog.load_entry(name)
    entry.automorphisms
    degrees = []
    set_orbit = perm.PermutationGroup.set_orbit

    def counting(self, *args):
        degrees.append(self.degree)
        return set_orbit(self, *args)

    monkeypatch.setattr(perm.PermutationGroup, "set_orbit", counting)
    argv = ["spreading", "diagonal-witness", "--group", name, "--A", a_label, "--B", b_label, "--json"]
    assert main(argv) == code
    capsys.readouterr()
    assert degrees == [len(entry.table)]


@pytest.mark.parametrize("scope", ["T", "Aut"])
@pytest.mark.parametrize("name,a_label,b_label,spaces", [("A7", "stab3", "stab3_even", 0),
                                                         ("A5", "C5", "1", 1)])
def test_supplement_builds_a_coset_space_only_to_locate_a_failure(
        capsys, monkeypatch, scope, name, a_label, b_label, spaces):
    """The supplement property is decided by orbit counts from the permutation
    character; a coset space is built only when they differ, to find the
    failing representative."""
    entry = catalog.load_entry(name)
    entry.automorphisms
    built = 0
    coset_space = witness.coset_space

    def counting(*args):
        nonlocal built
        built += 1
        return coset_space(*args)

    monkeypatch.setattr(witness, "coset_space", counting)
    argv = ["spreading", "supplement", "--group", name, "--A", a_label, "--B", b_label,
            "--scope", scope, "--json"]
    assert main(argv) == (1 if spaces else 0)
    assert json.loads(capsys.readouterr().out)["certificate"]["holds"] is not bool(spaces)
    assert built == spaces


@pytest.mark.parametrize(
    "argv",
    [
        ["spreading", "diagonal-witness", "--group", "A5", "--A", "A4", "--B", "V4"],
        ["spreading", "ab-check", "--group", "A7", "--A", "stab3", "--B", "stab3_even"],
        ["spreading", "verify-witness", "--group", "A5", "--diagonal", "--witness"],
        ["spreading", "char-witness", "--group", "A5", "--r", "3A", "--s1", "5A", "--s2", "5B"],
    ],
    ids=["diagonal-witness", "ab-check", "verify-witness-diagonal", "char-witness"],
)
def test_pair_builder_runs_no_schreier_sims(capsys, monkeypatch, tmp_path, argv):
    """Once the entry is loaded, the pair facts come from the table and the
    order of diag(T) from orbit-stabiliser on it: no command builds a
    stabilizer chain of degree |T|.  Checking that the translations of diag(T)
    generate T builds two chains at T's natural degree, one per side."""
    entry = catalog.load_entry(argv[3])
    entry.automorphisms
    for flag in ("--A", "--B"):
        if flag in argv:
            entry.subgroup(argv[argv.index(flag) + 1])
    if argv[-1] == "--witness":
        _, report = run_json(
            capsys, "spreading", "diagonal-witness", "--group", "A5", "--A", "A4", "--B", "V4"
        )
        path = tmp_path / "w.json"
        path.write_text(json.dumps(report["certificate"]))
        argv = [*argv, str(path)]
    built = []
    init = perm._StabilizerChain.__init__

    def counting(self, generators, degree):
        built.append(degree)
        init(self, generators, degree)

    monkeypatch.setattr(perm._StabilizerChain, "__init__", counting)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert built == ([] if argv[1] == "ab-check" else [entry.degree] * 2)


# A5 as a group file labelling a non-normal C3 inside A4 and the whole group
A5_PAIRS = {**A5_COPY, "subgroups": {**A5_COPY["subgroups"], "C3": [[[0, 1, 3]]],
                                     "T": A5_COPY["generators"]}}


@pytest.mark.parametrize(
    "source,a_label,b_label,message",
    [
        ("A5", "A4", "C5", "B must be contained in A"),
        ("A5", "A4", "A4", "B must be a proper subgroup of A"),
        ("file", "A4", "C3", "B is not normalized by A"),
        ("file", "T", "1", "A must be a proper subgroup of T"),
    ],
    ids=["B-outside-A", "B-equals-A", "B-not-normal", "A-is-T"],
)
def test_bad_pairs_get_one_message_on_both_paths(capsys, tmp_path, source, a_label, b_label,
                                                 message):
    if source == "file":
        path = tmp_path / "A5pairs.json"
        path.write_text(json.dumps(A5_PAIRS))
        source_args = ["--file", str(path)]
    else:
        source_args = ["--group", source]
    pair = [*source_args, "--A", a_label, "--B", b_label]
    # with A = T the default point set base^A is all of Omega, so give one
    ab_set = ["--set", "0,1"] if a_label == "T" else []
    for argv in (["spreading", "ab-check", *pair, *ab_set],
                 ["spreading", "diagonal-witness", *pair]):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["certificate"] == {"error": "InvalidSubgroup", "message": message}


def _positions(node, path=()):
    """Key paths of every value below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _mutants(data, degree, rng, count):
    """Copies of data with one value each replaced by a fixed list of bad or
    borderline values.  None of them can raise the degree or the group order
    above the original's, so every command stays small."""
    values = [None, True, 1.5, "x", [], {}, -1, degree, [[0]]]
    positions = list(_positions(data))
    for _ in range(count):
        mutant = copy.deepcopy(data)
        *parents, last = rng.choice(positions)
        node = mutant
        for key in parents:
            node = node[key]
        node[last] = copy.deepcopy(rng.choice(values))
        yield mutant


@pytest.mark.parametrize("source", ["group-file", "witness-file"])
def test_mutated_input_files_keep_the_exit_contract(capsys, tmp_path, source):
    """Seeded fuzzing of the input boundary: every mutant ends in exit 0, 1 or
    2 with a report, and none escapes main as an exception."""
    rng = random.Random(f"spreadcheck-fuzz:{source}")
    path = tmp_path / "input.json"
    if source == "group-file":
        data, degree = dict(D10_JSON, supplement_pairs=[["C5", "1"]]), 5
        argv = ["spreading", "supplement", "--file", str(path), "--A", "C5", "--B", "1",
                "--scope", "Aut"]
    else:
        _, report = run_json(
            capsys, "spreading", "diagonal-witness", "--group", "A5", "--A", "A4", "--B", "V4"
        )
        data, degree = report["certificate"], 60
        argv = ["spreading", "verify-witness", "--group", "A5", "--diagonal", "--witness", str(path)]
    codes = []
    for mutant in _mutants(data, degree, rng, 200):
        path.write_text(json.dumps(mutant))
        code, report = run_json(capsys, *argv)
        assert code in (0, 1, 2), (mutant, report)
        assert (code == 2) == (report["verdict"] == "error"), (mutant, report)
        codes.append(code)
    assert 2 in codes and 0 in codes

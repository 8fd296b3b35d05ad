"""Command line surface.

Every command prints a run report (JSON with --json, otherwise a short human
summary) and exits 0 when the requested property was verified, 1 when it was
refuted or nothing was found, and 2 on usage or internal errors, and also
when the reader closes the output early.  Reports for identical inputs are
identical byte for byte apart from the timing field.

main resolves the group of --group or --file once and hands its catalog entry
to the command's handler, which returns the verdict, certificate and summary
lines; _run derives the exit code from the verdict.  Every file and number
the user gives is parsed and checked in catalog.  Any other exception exits
2 too, its report marked "internal" and its traceback on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback

from . import catalog
from .chartab import (
    CharWitnessSpec,
    character_triple_check,
    character_triple_search,
    class_orbit_partition,
    dixon_character_table,
    validate_character_witness,
)
from .diagonal import DiagonalGroup
from .errors import CapExceeded, InvalidSubgroup, VerificationInconsistency
from .witness import (
    Witness,
    diagonal_witness,
    orbit_count_pair,
    supplement_property,
    two_point_stabilizer_trivial,
    verify_diagonal,
    verify_witness,
    witness_from_subgroup_pair,
)

_EXIT_CODES = {"verified": 0, "refuted": 1}  # errors exit 2


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the output; what is still buffered goes to devnull,
        # so the flush at interpreter exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


def _run(argv: list[str]) -> int:
    start = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        if "--json" in argv:
            known = argparse.Namespace(command_path=exc.command, json=True, argv=argv)
            certificate = {"error": type(exc).__name__, "message": str(exc)}
            _emit(known, _report(known, "error", certificate, start), [])
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        entry = catalog.load_entry_file(args.file) if args.file else catalog.load_entry(args.group)
        verdict, certificate, lines = args.handler(entry, args)
    except (
        ValueError,
        KeyError,
        OSError,
        InvalidSubgroup,
        VerificationInconsistency,
        CapExceeded,
    ) as exc:
        certificate = {"error": type(exc).__name__, "message": str(exc)}
        _emit(args, _report(args, "error", certificate, start), [f"error: {exc}"])
        return 2
    except Exception as exc:  # a bug: exit 2, never 1, which would read as refuted
        traceback.print_exc()
        certificate = {"error": type(exc).__name__, "message": str(exc), "internal": True}
        _emit(args, _report(args, "error", certificate, start), [f"internal error: {exc!r}"])
        return 2
    _emit(args, _report(args, verdict, certificate, start), lines)
    return _EXIT_CODES[verdict]


def _report(args, verdict: str, certificate, start: float) -> dict:
    skip = {"handler", "json", "command_path"}
    inputs = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return {
        "command": args.command_path,
        "inputs": inputs,
        "verdict": verdict,
        "certificate": certificate,
        "timing_ms": int((time.perf_counter() - start) * 1000),
    }


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"[{report['verdict']}] {report['command']}")
        for line in lines:
            print(line)


class UsageError(Exception):
    """An argparse usage error: its message, and the command path that failed
    to parse ("" for the top level)."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Prints a usage error to stderr as argparse does, then raises UsageError
    in place of exiting, so main can also report it under --json."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise UsageError(self.prog.partition(" ")[2], message) from None

    def parse_args(self, args=None, namespace=None):
        """argparse reports unrecognized arguments from the top-level parser;
        the report names the command that parsed all the others."""
        known, extras = self.parse_known_args(args, namespace)
        if extras:
            try:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            except UsageError as exc:
                exc.command = known.command_path
                raise
        return known


def _cap_kw(args) -> dict:
    return {} if args.cap is None else {"cap": args.cap}


def _outcome(result) -> tuple[str, dict, list[str]]:
    """Verdict, certificate and summary line of a Witness or Refutation."""
    if isinstance(result, Witness):
        return "verified", result.to_json(), [
            f"witness over {result.group_label}: |X| = {len(result.points)}, "
            f"|J| = {result.multiset.cardinality}, constant = {result.constant}"
        ]
    detail = f" {result.counterexample}" if result.counterexample else ""
    return "refuted", result.to_json(), [f"refuted: {result.violation}{detail}"]


# --- handlers ---------------------------------------------------------------

def _cmd_group_info(entry, args):
    group = entry.group
    cert = {
        "name": entry.name,
        "degree": entry.degree,
        "order": group.order(),
        "transitive": group.is_transitive(),
        "generators": [p.cycle_string() for p in entry.generators],
        "subgroups": sorted(entry.subgroups),
    }
    return "verified", cert, [
        f"{entry.name}: degree {entry.degree}, order {group.order()}, "
        f"transitive={group.is_transitive()}"
    ]


def _cmd_group_classes(entry, args):
    table = entry.table
    rows = [
        {
            "name": name,
            "size": cls.size,
            "element_order": table.element_order(cls.representative),
            "representative": table.elements[cls.representative].cycle_string(),
        }
        for name, cls in zip(table.class_names(), table.conjugacy_classes())
    ]
    lines = [
        f"{r['name']:>4}  size {r['size']:>6}  order {r['element_order']:>3}  {r['representative']}"
        for r in rows
    ]
    return "verified", {"group": entry.name, "classes": rows}, lines


def _cmd_group_aut(entry, args):
    auts = entry.automorphisms
    cert = {
        "group": entry.name,
        "order": auts.order,
        "inner_order": len(entry.table),
        "outer_order": auts.outer_order,
    }
    return "verified", cert, [
        f"|Aut| = {auts.order}, inner {len(entry.table)}, outer {auts.outer_order}"
    ]


def _cmd_chartab_compute(entry, args):
    ct = dixon_character_table(entry.table)
    return "verified", ct.to_json(), ct.to_text().splitlines()


def _cmd_verify_witness(entry, args):
    # diag(T) acts on the |T| indices of T: the witness is read before diag(T) is made
    points, multiset = catalog.read_witness(args.witness, len(entry.table) if args.diagonal else entry.degree)
    if args.diagonal:
        result = verify_diagonal(DiagonalGroup(entry.table, entry.automorphisms), points, multiset, **_cap_kw(args))
    else:
        result = verify_witness(entry.group, points, multiset, group_label=entry.name, **_cap_kw(args))
    return _outcome(result)


def _cmd_ab_check(entry, args):
    points = None if args.set is None else catalog.distinct(
        [catalog.parse_point(s, entry.degree, "--set point") for s in args.set.split(",")], "--set point")
    return _outcome(witness_from_subgroup_pair(entry.subgroup(args.A), entry.subgroup(args.B), args.base,
                                               points, group_label=entry.name, **_cap_kw(args)))


def _cmd_diagonal_witness(entry, args):
    return _outcome(diagonal_witness(entry.table, entry.automorphisms, entry.subgroup(args.A),
                                     entry.subgroup(args.B), **_cap_kw(args)))


def _cmd_supplement(entry, args):
    a_set, b_set = entry.subgroup(args.A), entry.subgroup(args.B)
    auts = entry.automorphisms if args.scope == "Aut" else None
    report = supplement_property(entry.table, a_set, b_set, scope=args.scope, auts=auts)
    cert = {"group": entry.name, "A": args.A, "B": args.B, **report.to_json()}
    if report.holds:
        return "verified", cert, [
            f"supplement property holds for ({args.A}, {args.B}) over scope {args.scope}"
        ]
    return "refuted", cert, [
        f"supplement property fails at element {report.failing_element}"
    ]


def _cmd_char_witness(entry, args):
    table = entry.table
    ct = dixon_character_table(table)
    auts = entry.automorphisms
    partition = class_orbit_partition(table, auts)
    ids = tuple(table.class_by_name(n) for n in (args.r, args.s1, args.s2))
    result = character_triple_check(table, ct, partition, *ids)
    names = {"r": args.r, "s1": args.s1, "s2": args.s2}
    if not isinstance(result, CharWitnessSpec):
        cert = {**names, "violation": result.violation, "detail": result.detail}
        return "refuted", cert, [
            f"triple fails: {result.violation} {result.detail}"
        ]
    verdict, witness, lines = _outcome(validate_character_witness(DiagonalGroup(table, auts), result))
    return verdict, {"triple": names, "witness": witness}, lines


def _cmd_char_search(entry, args):
    table = entry.table
    ct = dixon_character_table(table)
    partition = class_orbit_partition(table, entry.automorphisms)
    found = character_triple_search(table, ct, partition)
    names = table.class_names()
    triples = [
        {"r": names[s.r_class], "s1": names[s.s1_class], "s2": names[s.s2_class]}
        for s in found
    ]
    cert = {"group": entry.name, "count": len(triples), "triples": triples}
    lines = [f"({t['r']}, {t['s1']}, {t['s2']})" for t in triples] or ["no triple found"]
    return ("verified" if triples else "refuted"), cert, lines


def _cmd_orbits_count(entry, args):
    c_a, c_b = orbit_count_pair(entry.table, entry.subgroup(args.A), entry.subgroup(args.B))
    cert = {"group": entry.name, "A": args.A, "B": args.B,
            "A_orbits": c_a, "B_orbits": c_b, "equal": c_a == c_b}
    return "verified", cert, [
        f"{args.A} has {c_a} orbits, {args.B} has {c_b} orbits on cosets of {args.A}"
    ]


def _cmd_two_check(entry, args):
    t = two_point_stabilizer_trivial(entry.table, entry.subgroup(args.A))
    if t is None:
        cert = {"group": entry.name, "A": args.A, "found": False, "t": None}
        return "refuted", cert, ["every conjugate meets A nontrivially"]
    cert = {
        "group": entry.name,
        "A": args.A,
        "found": True,
        "t": t,
        "t_cycles": entry.table.elements[t].cycle_string(),
    }
    return "verified", cert, [f"A cap A^t is trivial for t = {t}"]


# --- parser -----------------------------------------------------------------

def _add_group_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", help="catalog group name")
    src.add_argument("--file", help="path to a group description JSON file")


def _leaf(sub, name: str, path: str, handler, cap=False):
    """One command.  Only commands that honour --cap accept it; the others
    still report "cap": null among their inputs, so every report has the same
    keys."""
    p = sub.add_parser(name)
    _add_group_source(p)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    if cap:
        p.add_argument("--cap", type=catalog.nonnegative, default=None, help="set-orbit enumeration cap")
    p.set_defaults(handler=handler, command_path=path, cap=None)
    return p


@functools.cache  # parsing leaves the tree unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spreadcheck")
    sections = parser.add_subparsers(dest="section", required=True)

    group = sections.add_parser("group").add_subparsers(dest="action", required=True)
    _leaf(group, "info", "group info", _cmd_group_info)
    _leaf(group, "classes", "group classes", _cmd_group_classes)
    _leaf(group, "aut", "group aut", _cmd_group_aut)

    chartab = sections.add_parser("chartab").add_subparsers(dest="action", required=True)
    _leaf(chartab, "compute", "chartab compute", _cmd_chartab_compute)

    spreading = sections.add_parser("spreading").add_subparsers(dest="action", required=True)
    p = _leaf(spreading, "verify-witness", "spreading verify-witness", _cmd_verify_witness, cap=True)
    p.add_argument("--witness", required=True, help="witness JSON file to re-check")
    p.add_argument("--diagonal", action="store_true",
                   help="verify over the diagonal-type group built from the base group")
    p = _leaf(spreading, "ab-check", "spreading ab-check", _cmd_ab_check, cap=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--base", type=catalog.decimal, default=0, help="base point, in canonical decimal")
    p.add_argument("--set", default=None, help="comma-separated point set X")
    p = _leaf(spreading, "diagonal-witness", "spreading diagonal-witness", _cmd_diagonal_witness,
              cap=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p = _leaf(spreading, "supplement", "spreading supplement", _cmd_supplement)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--scope", choices=["T", "Aut"], default="T")
    p = _leaf(spreading, "char-witness", "spreading char-witness", _cmd_char_witness)
    p.add_argument("--r", required=True, help="class name for the witness set")
    p.add_argument("--s1", required=True)
    p.add_argument("--s2", required=True)
    _leaf(spreading, "char-search", "spreading char-search", _cmd_char_search)

    orbits = sections.add_parser("orbits").add_subparsers(dest="action", required=True)
    p = _leaf(orbits, "count", "orbits count", _cmd_orbits_count)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)

    basesize = sections.add_parser("basesize").add_subparsers(dest="action", required=True)
    p = _leaf(basesize, "two-check", "basesize two-check", _cmd_two_check)
    p.add_argument("--A", required=True)

    return parser

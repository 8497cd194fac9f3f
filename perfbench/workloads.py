"""The benchmark's four workloads: their operations, inputs and output checks.

Every operation calls a public entry point of jdist: ``jdist.cli.main(argv)``
with stdout captured, or ``jdist.subjohnson.congruent`` / ``union_points``.
Functions are looked up on their module at call time, so a traced run sees
the wrapped versions.  The reference values live here, never read from
``jdist.cli``; a check returns an error message, or None when the output
is correct.

jdist is imported inside the functions, because ``run.py`` puts this
checkout's ``src`` on the import path only once it has parsed its arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# m -> n -> (added, total, status); the m = 4, n = 9 row is checked apart
TABLES = {
    2: {9: (9, 45, "PASS")},
    3: {8: (8, 64, "PASS"), 9: (37, 121, "PASS")},
    4: {8: (57, 127, "PASS"), 18: (153, 3213, "PASS"), 25: (25, 12675, "PASS")},
    5: {
        16: (560, 4928, "PASS"),
        18: (2466, 11034, "PASS"),
        25: (601, 53731, "PASS"),
        49: (1176, 1908060, "PASS"),
    },
}
WITNESS_TOTAL = 258

# m -> largest extendable n (closed form, confirmed by the scan)
COROLLARY = {2: 9, 3: 9, 4: 25, 5: 49, 6: 49, 7: 81, 8: 121}

# families n m: candidate families listed, and the added points of the
# table row, which the addable families must account for exactly
FAMILIES_25_4 = 2924
ADDED_25_4 = 25
ADDED_49_5 = 1176

# sub2 n -> (combination, status, recomputed total); FLAG rows carry the
# recomputed totals 8 and 30 instead of the printed 12 and 28
SUB2 = {
    5: [("S1+ + S1-", "FLAG", 8)],
    6: [("S1+ + S4-", "PASS", 16), ("S1- + S4+", "PASS", 16)],
    7: [("S4+ + S4-", "PASS", 27)],
    8: [("S2+ + S4+", "PASS", 29), ("S2- + S4-", "PASS", 29)],
    9: [
        ("S1+ + S1-", "FLAG", 30),
        ("S1+ + S3- + S4-", "PASS", 45),
        ("S1- + S3+ + S4+", "PASS", 45),
    ],
    17: [("S1+ + S2-", "PASS", 122), ("S1- + S2+", "PASS", 122)],
}
SUB2_NS = range(5, 18)
CONGRUENCE_NS = range(5, 9)

# verify inputs: file -> (n, families or None for the witness, m, points, spectrum)
VERIFY_FILES = {
    "witness_9_4.json": (9, None, 4, 258, "2, 4, 6, 8"),
    "union_9_S1+_S1-.json": (9, ("S1+", "S1-"), 2, 30, "2, 4"),
    "union_9_S1+_S3-_S4-.json": (9, ("S1+", "S3-", "S4-"), 2, 45, "2, 4"),
}

WORKLOADS = ("family_scan", "search_9_4", "fixed_axis", "verify_files")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def call_cli(argv: list[str]) -> tuple[int, str]:
    import jdist.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = jdist.cli.main(argv)
    return code, out.getvalue()


def cli_op(argv: list[str], check) -> Op:
    return Op("jdist " + " ".join(argv), lambda: call_cli(argv), check)


# -- checks ----------------------------------------------------------------


def _table_rows(text: str) -> dict[int, tuple[int, int, str]]:
    rows = {}
    for line in text.splitlines()[2:]:
        n, added, total, status = line.split()
        rows[int(n)] = (int(added), int(total), status)
    return rows


def check_table(m: int):
    def check(outcome):
        code, text = outcome
        rows = _table_rows(text)
        expected = dict(TABLES[m])
        if m == 4:
            added, total, status = rows.pop(9, (0, 0, "missing"))
            proven = code == 0 and status == "PASS" and total == WITNESS_TOTAL
            if not proven and (code != 3 or status != "CONJ" or total < WITNESS_TOTAL):
                return f"n=9 row {added} {total} {status} with exit {code}"
        elif code != 0:
            return f"exit {code}"
        if rows != expected:
            return f"rows {rows} != {expected}"
        return None

    return check


def check_corollary(outcome):
    code, text = outcome
    rows = {}
    for line in text.splitlines()[2:]:
        m, closed, scan, status = line.split()
        rows[int(m)] = (int(closed), int(scan), status)
    expected = {m: (n, n, "PASS") for m, n in COROLLARY.items()}
    if code != 0 or rows != expected:
        return f"exit {code}, rows {rows}"
    return None


def _family_entries_text(text: str) -> tuple[int, list[tuple[int, bool]]]:
    lines = text.splitlines()
    count = int(lines[0].rsplit(":", 1)[1])
    entries = []
    for line in lines[1:]:
        size = int(line.split("size=")[1].split()[0])
        addable = line.split("addable=")[1].split()[0]
        entries.append((size, addable == "true"))
    return count, entries


def _family_entries(fmt: str, text: str) -> tuple[int, list[tuple[int, bool]]]:
    if fmt == "text":
        return _family_entries_text(text)
    if fmt == "json":
        results = json.loads(text)["results"]
        return results["count"], [(e["size"], e["addable"]) for e in results["families"]]
    rows = list(csv.DictReader(io.StringIO(text)))
    return len(rows), [(int(r["size"]), r["addable"] == "True") for r in rows]


def check_families(fmt: str, listed: int | None, added: int, addable_only: bool):
    def check(outcome):
        code, text = outcome
        count, entries = _family_entries(fmt, text)
        addable_size = sum(size for size, ok in entries if ok)
        if code != 0 or count != len(entries):
            return f"exit {code}, count {count} for {len(entries)} entries"
        if listed is not None and count != listed:
            return f"{count} families listed, expected {listed}"
        if addable_only and not all(ok for _, ok in entries):
            return "a non-addable family is listed"
        if addable_size != added:
            return f"addable families hold {addable_size} points, expected {added}"
        return None

    return check


def check_sub2(n: int):
    def check(outcome):
        code, text = outcome
        if code != 0:
            return f"exit {code}"
        lines = [line.strip() for line in text.splitlines()]
        johnson = math.comb(n - 1, 2)
        if f"johnson points: {johnson}" not in lines:
            return f"johnson points line missing, expected {johnson}"
        start = lines.index("maximal combinations:") + 1
        stop = lines.index("reference check:") if "reference check:" in lines else len(lines)
        combos = {}
        for line in lines[start:stop]:
            label, rest = line.split(": ")
            combos[label] = int(rest.split("[")[1].rstrip("]"))
        if not combos:
            return "no maximal combination"
        checks = lines[stop + 1 :]
        if len(checks) != len(SUB2.get(n, ())):
            return f"{len(checks)} reference rows"
        for (label, status, total), line in zip(SUB2.get(n, ()), checks):
            if combos.get(label) != total:
                return f"{label} total {combos.get(label)}, expected {total}"
            if not (line.startswith(label + ":") and line.endswith(status)):
                return f"reference row {line!r}, expected {label} {status}"
        return None

    return check


def check_verify(points: int, spectrum: str):
    expected = f"points: {points}\nvalid: true\nspectrum: {spectrum}\n"

    def check(outcome):
        code, text = outcome
        if code != 0 or text != expected:
            return f"exit {code}, output {text!r}"
        return None

    return check


def check_true(outcome):
    return None if outcome is True else f"returned {outcome!r}"


# -- inputs and operations -------------------------------------------------


def johnson_2(n: int) -> list[tuple[int, ...]]:
    """J(n, 2): the 0/1 indicators of the 2-subsets of n coordinates."""
    return [
        tuple(1 if i in pair else 0 for i in range(n))
        for pair in itertools.combinations(range(n), 2)
    ]


def _congruent_op(n: int, labels_a: tuple[str, ...], other) -> Op:
    import jdist.subjohnson as sj

    if isinstance(other, tuple):
        label = f"congruent {'+'.join(labels_a)} ~ {'+'.join(other)} n={n}"
        call = lambda: sj.congruent(sj.union_points(n, labels_a), sj.union_points(n, other))
    else:
        label = f"congruent {'+'.join(labels_a)} ~ J({n},2)"
        call = lambda: sj.congruent(sj.union_points(n, labels_a), other)
    return Op(label, call, check_true)


def write_inputs(workload: str, directory: Path, seed: int) -> None:
    """Write the point files a workload reads; the seed permutes rows only."""
    if workload != "verify_files":
        return
    import jdist.maximality
    import jdist.subjohnson
    from jdist.exactnum import format_quad

    rng = random.Random(seed)
    for name, (n, labels, _, _, _) in VERIFY_FILES.items():
        if labels is None:
            points = jdist.maximality.four_distance_witness_points()
        else:
            points = jdist.subjohnson.union_points(n, labels)
        rows = [[format_quad(c) for c in p] for p in points]
        rng.shuffle(rows)
        (directory / name).write_text(json.dumps(rows), encoding="utf-8")


def operations(workload: str, directory: Path) -> list[Op]:
    if workload == "family_scan":
        ops = [cli_op(["tables", "--m", str(m)], check_table(m)) for m in (2, 3, 5)]
        ops.append(cli_op(["corollary", "8"], check_corollary))
        ops.append(
            cli_op(
                ["families", "49", "5", "--addable"],
                check_families("text", None, ADDED_49_5, True),
            )
        )
        for fmt in ("text", "json", "csv"):
            ops.append(
                cli_op(
                    ["families", "25", "4", "--format", fmt],
                    check_families(fmt, FAMILIES_25_4, ADDED_25_4, False),
                )
            )
        return ops
    if workload == "search_9_4":
        return [cli_op(["tables", "--m", "4"], check_table(4))]
    if workload == "fixed_axis":
        ops = [cli_op(["sub2", str(n)], check_sub2(n)) for n in SUB2_NS]
        for n in CONGRUENCE_NS:
            for kind in (1, 2, 3, 4):
                ops.append(_congruent_op(n, (f"S{kind}+",), (f"S{kind}-",)))
            ops.append(_congruent_op(n, ("S3+",), johnson_2(n)))
        return ops
    if workload == "verify_files":
        return [
            cli_op(
                ["verify", str(directory / name), "--m", str(m), "--johnson"],
                check_verify(points, spectrum),
            )
            for name, (_, _, m, points, spectrum) in VERIFY_FILES.items()
        ]
    raise ValueError(f"unknown workload {workload!r}")

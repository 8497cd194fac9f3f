"""Command-line front end.

Every subcommand produces a deterministic report: identical configuration
yields byte-identical output.  Reports carry a PASS/FLAG/FAIL status
column wherever reference values are embedded; FLAG marks the known
places where a printed reference total disagrees with recomputation
(those are reported, never silently adopted).

The library returns plain data; this module alone shapes it into
reports, with one builder per JSON record kind.  Each handler returns one
:class:`Report`; :func:`run` writes it as text, JSON or CSV while it is
produced, so a listing holds a bounded batch of its output at a time, and
builds the JSON body only for JSON.

Exit codes: 0 success, 1 when ``tables`` or ``sub2`` has a FAIL reference
row, 2 invalid arguments or a report that cannot be written (an
``--output`` path that cannot be opened, a closed stdout pipe), 3 when a
clique search hit its node budget without proving optimality.  Every
refusal of the arguments comes before ``--output`` is opened; the report is
written in every case but 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from . import subjohnson
from .exactnum import format_ratio, format_root, parse_quad
from .families import (
    Parameters,
    addable_families,
    enumerate_families,
    family_counts,
    orbit_size,
    peak_is_addable,
    scaled_levels,
    scaled_peak,
)
from .maximality import DEFAULT_BUDGET, DEFAULT_CAP, classify, verify_point_set
from .numbertheory import is_extendable, max_extendable_n, special_factor

TABLE_SEARCH_BUDGET = 20_000

# Reference classification tables: n -> (added, total, status kind).  The
# n = 9, m = 4 maximum is open: its row holds the best known extension, 132
# vectors for 258 points, and reads CONJ while the search cannot prove it.
TABLES_EXPECTED = {
    2: {9: (9, 45, "exact")},
    3: {8: (8, 64, "exact"), 9: (37, 121, "exact")},
    4: {
        8: (57, 127, "exact"),
        9: (132, 258, "conjecture"),
        18: (153, 3213, "exact"),
        25: (25, 12675, "exact"),
    },
    5: {
        16: (560, 4928, "exact"),
        18: (2466, 11034, "exact"),
        25: (601, 53731, "exact"),
        49: (1176, 1908060, "exact"),
    },
}

# Reference two-distance combination lists: n -> (labels, added, bracketed
# total, bracket_disputed).  Disputed brackets fail simple re-addition
# (Johnson size + added); those rows are FLAGged and recomputed.
SUB2_EXPECTED = {
    5: [(("S1+", "S1-"), 2, 12, True)],
    6: [(("S1+", "S4-"), 6, 16, False), (("S1-", "S4+"), 6, 16, False)],
    7: [(("S4+", "S4-"), 12, 27, False)],
    8: [(("S2+", "S4+"), 8, 29, False), (("S2-", "S4-"), 8, 29, False)],
    9: [
        (("S1+", "S1-"), 2, 28, True),
        (("S1+", "S3-", "S4-"), 17, 45, False),
        (("S1-", "S3+", "S4+"), 17, 45, False),
    ],
    17: [(("S1+", "S2-"), 2, 122, False), (("S1-", "S2+"), 2, 122, False)],
}


@dataclass
class Report:
    """One subcommand's report, shaped for each output format.

    ``rows``, ``lines`` and the lists in the ``results`` body may be
    generators: :func:`run` consumes only the one its format writes, once,
    writing as it goes, and calls ``results`` only for JSON.
    """

    results: Callable[[], dict]  # builds the JSON body
    rows: Iterable  # the CSV table, header first
    lines: Iterable  # the text report
    code: int = 0  # the exit code


def _flag(value: bool) -> str:
    return "true" if value else "false"


# -- JSON: the bytes of json.dumps(value, indent=2) --------------------------
#
# The stdlib C encoder serves only indent=None; with an indent every call
# runs the pure-Python encoder.  Reports hold str-keyed dicts, lists (or
# generators in their place) and the scalars below, matched by exact type,
# so a float, a tuple, an int subclass such as an IntEnum member, or a key
# that is not a str raises TypeError.

_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}

_JSON_BATCH = 4096  # pieces joined into one write


def _write_json(value, newline: str, chunks: list, write) -> None:
    """Append the dict, list or generator ``value`` to ``chunks``, passing a
    full batch of them to ``write`` after a list item; ``newline`` breaks a
    line and indents it to the depth of ``value``'s own line."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not GeneratorType:
        raise TypeError(f"a report cannot hold {kind.__name__} {value!r}")
    if not value:  # a generator is found empty only below
        chunks.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    comma = "," + inner
    scalars = _JSON_SCALARS
    if kind is dict:
        sep = "{" + inner
        for key, item in value.items():
            head = sep + encode_basestring_ascii(key) + ": "  # TypeError unless a str
            scalar = scalars.get(type(item))
            if scalar is None:
                chunks.append(head)
                _write_json(item, inner, chunks, write)
            else:
                chunks.append(head + scalar(item))
            sep = comma
        chunks.append(newline + "}")
    else:
        sep = "[" + inner
        for item in value:
            scalar = scalars.get(type(item))
            if scalar is None:
                chunks.append(sep)
                _write_json(item, inner, chunks, write)
            else:
                chunks.append(sep + scalar(item))
            sep = comma
            if len(chunks) >= _JSON_BATCH:
                write("".join(chunks))
                chunks.clear()
        chunks.append(newline + "]" if sep is comma else "[]")  # "[]": no item came


def write_json(value, write) -> None:
    """Pass ``json.dumps(value, indent=2)``, byte for byte, to ``write`` in
    pieces, for report values."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        write(scalar(value))
        return
    chunks: list[str] = []
    _write_json(value, "\n", chunks, write)
    write("".join(chunks))


def _records(columns, records) -> list:
    """CSV table of flat dicts: the header, then one row per record."""
    columns = tuple(columns)
    return [columns] + [tuple(record[c] for c in columns) for record in records]


def _columns(widths, rows) -> list:
    """Fixed-width text table: cells right-aligned to ``widths``, the last column
    unpadded, a missing value (None) shown as ``-``."""
    cells = [["-" if cell is None else str(cell) for cell in row] for row in rows]
    return [" ".join([c.rjust(w) for c, w in zip(row, widths)] + row[-1:]) for row in cells]


# -- report records: one builder per JSON record kind ----------------------


class _Ratios(dict):
    """Numerator -> ``format_ratio(numerator, n)``, each formatted on first use.

    One report makes one and drops it: a listing repeats a few dozen
    numerators thousands of times."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, num: int) -> str:
        text = self[num] = format_ratio(num, self.n)
        return text


def _family_record(m: int, offset: int, counts: tuple, size: int, ratios: _Ratios, **extra) -> dict:
    """A candidate family of J(n, m) with ``size`` points, its levels
    formatted by ``ratios`` (over n); the ``extra`` keys follow the
    family's own."""
    n = ratios.n
    return {
        "n": n,
        "m": m,
        "k0": offset,
        "k": list(counts),
        "size": size,
        "levels": [ratios[v] for v in scaled_levels(n, offset, len(counts))],
        **extra,
    }


def _classify_notes(report, budget: int) -> list:
    graph = report.graph
    if not graph.families:
        return ["no addable candidate vectors; the representation is maximal"]
    if not graph.conflicts:
        return ["all intra- and cross-family spectra stay inside the allowed set"]
    if report.capped:
        return [
            "universe exceeds the materialization cap; spectrum-level verification only, "
            "cardinality is a single-family lower bound"
        ]
    notes = []
    if report.clique_structure is not None:
        notes.append(
            "incompatibilities form a perfect partial matching: every maximal clique "
            "picks one vertex per incompatible pair plus all universal vertices"
        )
    if not report.optimal:
        notes.append(f"search budget of {budget} expansions exhausted; size is a lower bound")
    return notes


def _classify_record(report, budget: int) -> dict:
    """The classify record; ``budget`` is the search budget a note names."""
    graph = report.graph
    params = graph.params
    labels = [f"k0={f.offset} k={f.counts}" for f in graph.families]
    ratios = _Ratios(params.n)
    record = {
        "n": params.n,
        "m": params.m,
        "johnson_size": params.johnson_size,
        "addable_families": [
            _family_record(
                params.m, f.offset, f.counts, f.size, ratios, johnson_spectrum=[str(v) for v in s]
            )
            for f, s in zip(graph.families, graph.spectra)
        ],
        "universe_size": graph.size,
        "complete_compatibility": not graph.conflicts,
        "incompatibilities": [
            f"intra {labels[a]}" if a == b else f"cross {labels[a]} / {labels[b]}"
            for a, b in graph.conflicts
        ],
        "added_count": report.added_count,
        "maximal_set_cardinality": report.maximal_set_cardinality,
        "optimal": report.optimal,
        "notes": _classify_notes(report, budget),
    }
    s = report.clique_structure
    if s is not None:
        record["maximal_clique_sizes"] = {
            "min": s.size,
            "max": s.size,
            "count": s.count,
            "exhaustive": True,
            "method": "complement-matching",
        }
    return record


def _sub2_family_record(fam, intra: bool) -> dict:
    # the point shape ((a)^k, (a-1)^(n-1-k), (b)), without an empty run or an exponent 1
    a, low, b = (format_root(p, q, fam.f, fam.r) for p, q in fam.numerators)
    runs = ((a, fam.k), (low, fam.n - 1 - fam.k), (b, 1))
    shape = ", ".join(f"({v})^{c}" if c > 1 else f"({v})" for v, c in runs if c)
    return {
        "label": fam.label,
        "n": fam.n,
        "k": fam.k,
        "size": fam.size,
        "a": a,
        "b": b,
        "point_shape": f"({shape})",
        "intra_two_distance": intra,
    }


def _combination_record(combo) -> dict:
    return {
        "families": list(combo.labels),
        "added": combo.added,
        "total": combo.total,
        "maximal": combo.maximal,
    }


# -- subcommand handlers ---------------------------------------------------


def _cmd_n0(config: argparse.Namespace) -> Report:
    results = {"n": config.n, "special_factor": special_factor(config.n)}
    return Report(lambda: results, _records(results, [results]), [str(results["special_factor"])])


def _cmd_predicate(config: argparse.Namespace) -> Report:
    results = {"n": config.n, "m": config.m, "extendable": is_extendable(config.n, config.m)}
    lines = [f"not maximal: {_flag(results['extendable'])}"]
    return Report(lambda: results, _records(results, [results]), lines)


def _cmd_families(config: argparse.Namespace) -> Report:
    params = Parameters(config.n, config.m)
    n, m = config.n, config.m
    if config.addable_only:
        addable = addable_families(params)
        count = len(addable)
        families = (
            (f.offset, f.counts, f.size, scaled_peak(n, m, f.offset, f.counts)) for f in addable
        )
    else:
        for count in family_counts(params):  # the last count is the listing's
            if count > config.cap:
                raise ValueError(
                    f"at least {count} families exceed the cap {config.cap}; "
                    "raise --cap or pass --addable"
                )
        # the balanced counts have the largest orbit and, bar J(4, 2)'s Johnson
        # pattern, are listed: refuse just what str() would (8**d < 10**d first)
        q, r = divmod(n, m)
        largest = orbit_size(n, [q + 1] * r + [q] * (m - r))
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if digits and largest.bit_length() > 3 * digits and largest >= 10**digits:
            raise ValueError(
                f"orbit sizes pass the {digits}-digit int-to-str limit; lower n or pass --addable"
            )
        families = enumerate_families(params)
    ratios = _Ratios(n)  # levels and peaks share the denominator n
    # one (offset, counts, size, addable, peak text) per family; one format reads it
    listed = (
        (offset, counts, size, peak_is_addable(n, m, peak), ratios[peak])
        for offset, counts, size, peak in families
    )

    def results() -> dict:
        entries = (
            _family_record(m, offset, counts, size, ratios, addable=addable, peak_sq_dist=peak)
            for offset, counts, size, addable, peak in listed
        )
        return {"n": n, "m": m, "count": count, "families": entries}

    lines = itertools.chain(
        [f"families for n={n}, m={m}: {count}"],
        (
            f"  k0={offset:>4}  k={counts!s:<20} size={size:>8} "
            f"addable={_flag(addable):<5} peak={peak}"
            for offset, counts, size, addable, peak in listed
        ),
    )
    rows = itertools.chain(
        [("n", "m", "k0", "k", "size", "addable", "peak_sq_dist")],
        (
            (n, m, offset, " ".join(map(str, counts)), size, addable, peak)
            for offset, counts, size, addable, peak in listed
        ),
    )
    return Report(results, rows, lines)


def _cmd_classify(config: argparse.Namespace) -> Report:
    report = classify(Parameters(config.n, config.m), budget=config.budget, cap=config.cap)
    r = _classify_record(report, config.budget)
    lines = [
        f"classification for n={r['n']}, m={r['m']}",
        f"  johnson points: {r['johnson_size']}",
        f"  addable families: {len(r['addable_families'])}",
    ]
    for f in r["addable_families"]:
        lines.append(f"    k0={f['k0']}  k={tuple(f['k'])}  size={f['size']}")
    lines.append(f"  candidate points: {r['universe_size']}")
    lines.append(f"  complete compatibility: {_flag(r['complete_compatibility'])}")
    for item in r["incompatibilities"]:
        lines.append(f"    conflict: {item}")
    lines.append(f"  added: {r['added_count']}")
    lines.append(f"  maximal set cardinality: {r['maximal_set_cardinality']}")
    lines.append(f"  optimal: {_flag(r['optimal'])}")
    s = r.get("maximal_clique_sizes")
    if s is not None:
        lines.append(
            f"  maximal cliques: sizes {s['min']}..{s['max']}, count {s['count']} ({s['method']})"
        )
    for note in r["notes"]:
        lines.append(f"  note: {note}")
    rows = [
        ("n", "m", "added", "total", "optimal"),
        (r["n"], r["m"], r["added_count"], r["maximal_set_cardinality"], r["optimal"]),
    ]
    return Report(lambda: r, rows, lines, 0 if r["optimal"] else 3)


def _table_status(report, expected) -> str:
    """PASS/FAIL against a reference row, CONJ for the open row, NEW without one;
    a reference row that the scan did not reach (no report) FAILs."""
    if report is None:
        return "FAIL"
    if expected is None:
        return "NEW"
    added, total, kind = expected
    if (report.added_count, report.maximal_set_cardinality) != (added, total):
        return "FAIL"
    if kind == "conjecture" and not report.optimal:
        return "CONJ"
    return "PASS"


def _cmd_tables(config: argparse.Namespace) -> Report:
    m = config.m
    expected = TABLES_EXPECTED[m]
    ns = [n for n in range(2 * m, max_extendable_n(m) + 1) if is_extendable(n, m)]
    entries = []
    for n in ns + [n for n in expected if n not in ns]:
        report = classify(Parameters(n, m), budget=TABLE_SEARCH_BUDGET) if n in ns else None
        families = report.graph.families if report else ()
        ratios = _Ratios(n)
        entries.append(
            {
                "n": n,
                "families": [
                    _family_record(m, f.offset, f.counts, f.size, ratios) for f in families
                ],
                "added": report.added_count if report else None,
                "total": report.maximal_set_cardinality if report else None,
                "optimal": report.optimal if report else None,
                "status": _table_status(report, expected.get(n)),
            }
        )

    rows = [("n", "m", "family", "added", "total", "status")]
    for e in entries:
        for f in e["families"]:
            family = f"k0={f['k0']} k={','.join(map(str, f['k']))}"
            rows.append((e["n"], m, family, f["size"], "", ""))
        rows.append((e["n"], m, "*", e["added"], e["total"], e["status"]))  # csv writes None as ""
    table = _records(("n", "added", "total", "status"), entries)
    lines = [f"classification table for m={m}"] + _columns((4, 7, 9), table)
    if any(e["status"] == "FAIL" for e in entries):
        code = 1
    elif any(e["optimal"] is False for e in entries):
        code = 3
    else:
        code = 0
    return Report(lambda: {"m": m, "rows": entries}, rows, lines, code)


def _sub2_check(combo, added, bracket, disputed) -> str:
    """FAIL unless the combination is found with the reference count of added
    vectors; then FLAG a disputed bracket, else PASS when the totals agree."""
    if combo is None or combo.added != added:
        return "FAIL"
    if disputed:
        return "FLAG"
    return "PASS" if combo.total == bracket else "FAIL"


def _cmd_sub2(config: argparse.Namespace) -> Report:
    n = config.n
    report = subjohnson.combination_search(n)
    found = {c.labels: c for c in report.combinations}
    comparisons = []
    for labels, added, bracket, disputed in SUB2_EXPECTED.get(n, []):
        combo = found.get(labels)
        comparisons.append(
            {
                "families": list(labels),
                "added": added,
                "reference_total": bracket,
                "computed_total": combo.total if combo else None,
                "status": _sub2_check(combo, added, bracket, disputed),
            }
        )

    results = {
        "n": n,
        "johnson_size": subjohnson.sub_johnson_size(n),
        "families": [
            _sub2_family_record(f, ok) for f, ok in zip(report.families, report.intra_valid)
        ],
        "combinations": [_combination_record(c) for c in report.combinations],
        "reference": comparisons,
    }

    lines = [
        f"two-distance extensions of the fixed-last-axis representation, n={n}",
        f"  johnson points: {results['johnson_size']}",
        "  families:",
    ]
    for f in results["families"]:
        lines.append(
            f"    {f['label']}: {f['point_shape']}  size={f['size']} "
            f"intra={_flag(f['intra_two_distance'])}"
        )
    lines.append("  maximal combinations:")
    for combo in report.combinations:
        if combo.maximal:
            lines.append(f"    {' + '.join(combo.labels)}: {combo.added} vectors [{combo.total}]")
    if comparisons:
        lines.append("  reference check:")
    for item in comparisons:
        total = f"[{item['reference_total']}]"
        if item["status"] == "FLAG":
            total = f"reference {total} vs recomputed [{item['computed_total']}]"
        lines.append(f"    {' + '.join(item['families'])}: {total}  {item['status']}")
    rows = [("n", "families", "added", "total", "maximal")]
    for combo in report.combinations:
        rows.append((n, " ".join(combo.labels), combo.added, combo.total, combo.maximal))
    code = 1 if any(item["status"] == "FAIL" for item in comparisons) else 0
    return Report(lambda: results, rows, lines, code)


def _cmd_corollary(config: argparse.Namespace) -> Report:
    entries = []
    for m in range(2, config.m_max + 1):
        closed = max_extendable_n(m)
        scan = range(closed + 50, 2 * m - 1, -1)  # downward: the first hit is the largest
        scan_max = next((n for n in scan if is_extendable(n, m)), None)
        status = "PASS" if scan_max == closed else "FAIL"
        entries.append({"m": m, "closed_form": closed, "scan_max": scan_max, "status": status})
    rows = _records(("m", "closed_form", "scan_max", "status"), entries)
    header = ("m", "closed", "scan", "status")
    lines = ["largest extendable n per m"] + _columns((3, 7, 7), [header] + rows[1:])
    return Report(lambda: {"rows": entries}, rows, lines)


def _parse_coordinate(value, parsed: dict):
    """One coordinate; ``parsed`` holds the strings seen so far in this file,
    so that each distinct string is parsed once, on its first occurrence."""
    if isinstance(value, str):
        if value not in parsed:
            parsed[value] = parse_quad(value)
        return parsed[value]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"coordinates must be exact strings or integers, got {value!r}")


def _read_points(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValueError("expected a JSON array of arrays of coordinates")
    parsed: dict = {}
    return [tuple(_parse_coordinate(c, parsed) for c in row) for row in raw]


def _cmd_verify(config: argparse.Namespace) -> Report | None:
    try:
        points = _read_points(config.file)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"cannot read point set: {exc}", file=sys.stderr)
        return None
    ok, spectrum = verify_point_set(points, config.m, johnson=config.johnson)
    results = {
        "file": config.file,
        "m": config.m,
        "johnson": config.johnson,
        "points": len(points),
        "valid": ok,
        "spectrum": [str(v) for v in spectrum],
    }
    lines = [
        f"points: {len(points)}",
        f"valid: {_flag(ok)}",
        f"spectrum: {', '.join(results['spectrum'])}",
    ]
    rows = [("points", "valid", "spectrum"), (len(points), ok, " ".join(results["spectrum"]))]
    return Report(lambda: results, rows, lines)


_HANDLERS = {
    "n0": _cmd_n0,
    "predicate": _cmd_predicate,
    "families": _cmd_families,
    "classify": _cmd_classify,
    "tables": _cmd_tables,
    "sub2": _cmd_sub2,
    "corollary": _cmd_corollary,
    "verify": _cmd_verify,
}


def _write_report(config: argparse.Namespace, report: Report, out) -> None:
    if config.fmt == "json":
        envelope = {
            "command": config.subcommand,
            "arguments": _public_arguments(config),
            "results": report.results(),
        }
        write_json(envelope, out.write)
        out.write("\n")
    elif config.fmt == "csv":
        csv.writer(out).writerows(report.rows)
    else:
        for line in report.lines:
            out.write(f"{line}\n")


def run(config: argparse.Namespace, stream=None) -> int:
    """Execute one subcommand and write its report as it is produced;
    returns the exit code."""
    report = _HANDLERS[config.subcommand](config)
    if report is None:
        return 2

    out = stream if stream is not None else sys.stdout
    try:
        if config.output:
            with open(config.output, "w", encoding="utf-8") as out:
                _write_report(config, report, out)
        else:
            _write_report(config, report, out)
            if out is sys.stdout:
                out.flush()  # so that a closed pipe fails here, not at exit
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            # the reader is gone: keep the interpreter's last flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return report.code


def _public_arguments(config: argparse.Namespace) -> dict:
    args = {}
    for key in ("n", "m", "m_max", "file", "johnson", "addable_only", "budget", "cap"):
        value = getattr(config, key, None)
        if value is not None and value is not False:  # not "in (None, False)": 0 == False
            args[key] = value
    args["format"] = config.fmt
    return args


def _int_bounded(low: int | None = None, high: int | None = None):
    """An argparse ``type=`` that accepts integers in ``[low, high]``; a
    bound given as None is not checked."""

    def parse(text: str) -> int:
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``jdist`` parser, built on first use and shared by every later call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", help="write the report to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="jdist",
        description="Exact classification of maximal m-distance sets containing "
        "Johnson graph representations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("n0", parents=[common], help="special factor of n")
    p.add_argument("n", type=int)

    p = sub.add_parser("predicate", parents=[common], help="is the representation not maximal?")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = sub.add_parser("families", parents=[common], help="enumerate candidate families")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--addable", dest="addable_only", action="store_true")
    p.add_argument(
        "--cap",
        type=_int_bounded(0),
        default=DEFAULT_CAP,
        help="cap on the families listed without --addable",
    )

    p = sub.add_parser("classify", parents=[common], help="classify maximal extensions")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument(
        "--budget", type=_int_bounded(0), default=DEFAULT_BUDGET, help="clique search node budget"
    )
    p.add_argument(
        "--cap",
        type=_int_bounded(0),
        default=DEFAULT_CAP,
        help="cap on the candidate points and on the conflict edges materialized",
    )

    p = sub.add_parser("tables", parents=[common], help="reproduce a whole classification table")
    p.add_argument("--m", type=int, required=True, choices=(2, 3, 4, 5))

    p = sub.add_parser(
        "sub2", parents=[common], help="two-distance extensions with a fixed last axis"
    )
    # n < 5 is left to solve_sub_families, which reports it as an error line
    p.add_argument("n", type=int)

    p = sub.add_parser("corollary", parents=[common], help="largest extendable n for each m")
    p.add_argument("m_max", type=_int_bounded(2, 1000))

    p = sub.add_parser("verify", parents=[common], help="verify a point set from a JSON file")
    p.add_argument("file")
    p.add_argument("--m", type=_int_bounded(1), required=True)
    p.add_argument("--johnson", action="store_true", help="require the Johnson distance set")

    return parser


def config_from_args(argv=None) -> argparse.Namespace:
    """Parse ``argv``, refusing an unknown option against the subcommand's
    own parser: argparse hands a subcommand's leftovers back to the
    top-level parser, whose usage line names neither the subcommand nor its
    options."""
    parser = build_parser()
    config, extras = parser.parse_known_args(argv)
    if extras:
        subcommands = next(
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        )
        subcommands.choices[config.subcommand].error(
            f"unrecognized arguments: {' '.join(extras)}"
        )
    return config


def main(argv=None) -> int:
    config = config_from_args(argv)
    try:
        return run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

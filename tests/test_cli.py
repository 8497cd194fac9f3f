"""Command-line contract: outputs, formats, determinism, exit codes."""

import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import jdist.cli
import jdist.exactnum
from familyref import candidate_families
from jdist.cli import (
    SUB2_EXPECTED,
    TABLES_EXPECTED,
    build_parser,
    config_from_args,
    main,
    run,
)
from jdist.exactnum import format_ratio
from jdist.families import (
    CandidateFamily,
    Parameters,
    enumerate_families,
    is_addable,
    scaled_peak,
)
from jdist.maximality import DEFAULT_CAP, classify
from jdist.numbertheory import is_extendable, max_extendable_n

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "docs" / "report_schema.json"


def invoke(*argv):
    config = config_from_args(list(argv))
    stream = io.StringIO()
    code = run(config, stream=stream)
    return code, stream.getvalue()


def test_n0_command(capsys):
    code, out = invoke("n0", "18")
    assert code == 0
    assert out == "6\n"

    capsys.readouterr()
    assert main(["n0", "1" * 31]) == 2  # refused, not factored by trial division
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_predicate_command():
    code, out = invoke("predicate", "9", "2")
    assert code == 0
    assert out == "not maximal: true\n"
    code, out = invoke("predicate", "10", "2")
    assert out == "not maximal: false\n"


def test_families_command_addable():
    code, out = invoke("families", "9", "2", "--addable", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    rows = payload["results"]["families"]
    assert len(rows) == 1
    assert rows[0]["k0"] == 6 and rows[0]["k"] == [8, 1]
    assert rows[0]["levels"] == ["1/3", "-2/3"]
    assert rows[0]["size"] == 9


def test_families_listing_peak_is_fraction_text():
    # the listing prints each peak from its scaled integer, and each size
    # and addable flag is the family's own
    for n in range(2, 17):
        for m in range(1, min(5, n // 2) + 1):
            code, out = invoke("families", str(n), str(m), "--format", "json")
            assert code == 0
            listed = json.loads(out)["results"]["families"]
            fams = list(candidate_families(Parameters(n, m)))
            assert [(e["k0"], tuple(e["k"])) for e in listed] == [
                (f.offset, f.counts) for f in fams
            ]
            for f, e in zip(fams, listed):
                peak = Fraction(scaled_peak(n, m, f.offset, f.counts), n)
                assert e["peak_sq_dist"] == str(peak), (n, m, f.counts)
                assert e["size"] == f.size, (n, m, f.counts)
                assert e["addable"] is is_addable(f), (n, m, f.counts)


def test_families_listing_of_a_million_coordinates():
    # the one family of n = 10**6, m = 1 has size 1, found without forming n!
    code, out = invoke("families", "1000000", "1")
    assert code == 0
    assert out.splitlines()[1:] == [
        "  k0=999999  k=(1000000,)           size=       1 addable=false peak=999999/1000000"
    ]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_listing_past_the_digit_limit_is_refused_before_any_row(monkeypatch, capsys):
    walked = []
    walk = jdist.cli.enumerate_families
    monkeypatch.setattr(jdist.cli, "enumerate_families", lambda p: walked.append(p) or walk(p))
    limit = sys.get_int_max_str_digits()
    try:
        for digits, n in ((640, 2200), (4300, 15000)):  # C(2200, 1100) has 661 digits
            sys.set_int_max_str_digits(digits)
            for fmt in ("text", "json", "csv"):
                assert main(["families", str(n), "2", "--format", fmt]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.count("\n") == 1
                assert f"the {digits}-digit int-to-str limit" in captured.err
        assert walked == []
        # the largest n that prints at 640 digits still prints; the next is refused
        sys.set_int_max_str_digits(640)
        n = max(n for n in range(2100, 2200) if math.comb(n, n // 2) < 10**640)
        assert invoke("families", str(n), "2", "--format", "csv")[0] == 0
        assert main(["families", str(n + 1), "2"]) == 2
        # a limit of 0 refuses nothing, nor does an interpreter without the limit
        sys.set_int_max_str_digits(0)
        assert invoke("families", "2200", "2")[0] == 0
        sys.set_int_max_str_digits(640)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        with pytest.raises(ValueError, match="integer string conversion"):
            invoke("families", "2200", "2")  # str() itself refuses, once rows are built
    finally:
        sys.set_int_max_str_digits(limit)


def test_listing_walks_the_families_once(monkeypatch):
    # every format of the full listing reads one walk, and counts what it yielded
    walk = jdist.cli.enumerate_families
    walks, rows = [], []

    def traced(params):
        walks.append(params)
        for row in walk(params):
            rows.append(row)
            yield row

    monkeypatch.setattr(jdist.cli, "enumerate_families", traced)
    for fmt in ("text", "json", "csv"):
        walks.clear()
        rows.clear()
        code, out = invoke("families", "9", "3", "--format", fmt)
        assert code == 0 and walks == [Parameters(9, 3)], fmt
        if fmt == "json":
            count = json.loads(out)["results"]["count"]
        elif fmt == "text":
            count = int(out.splitlines()[0].rsplit(": ", 1)[1])  # families for n=9, m=3: 44
        else:
            count = len(out.splitlines()) - 1  # a header, then one row per family
        assert count == len(rows) == 44, fmt


def test_classify_command_csv():
    code, out = invoke("classify", "9", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,added,total,optimal"
    assert lines[1] == "9,3,37,121,True"


def test_classify_budget_exit_code():
    code, out = invoke("classify", "9", "4", "--budget", "2000")
    assert code == 3
    assert "maximal set cardinality: 258" in out
    assert "optimal: false" in out


def test_classify_deep_conflict_core_under_budget(capsys):
    # the n = 25, m = 6 core is searched deeper than the interpreter's
    # recursion limit; a budget stop still gives exit 3 and one report
    start = time.perf_counter()
    code = main(["classify", "25", "6", "--budget", "2000"])
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert captured.out.count("classification for n=25, m=6") == 1
    assert "  added: 6397\n" in captured.out
    assert "  optimal: false\n" in captured.out


def test_classify_32_7_proves_the_matching_bound():
    code, out = invoke("classify", "32", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "32,7,15408,3381264,True"


def test_tables_m5():
    code, out = invoke("tables", "--m", "5")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[2:]]
    assert [(int(r[0]), int(r[1]), int(r[2]), r[3]) for r in rows] == [
        (16, 560, 4928, "PASS"),
        (18, 2466, 11034, "PASS"),
        (25, 601, 53731, "PASS"),
        (49, 1176, 1908060, "PASS"),
    ]


def test_tables_m4_conjecture_row():
    code, out = invoke("tables", "--m", "4")
    assert code == 3  # the open row is reported, not proven
    lines = out.strip().splitlines()
    assert any(line.split() == ["8", "57", "127", "PASS"] for line in lines)
    assert any(line.split() == ["9", "132", "258", "CONJ"] for line in lines)
    assert any(line.split() == ["18", "153", "3213", "PASS"] for line in lines)
    assert any(line.split() == ["25", "25", "12675", "PASS"] for line in lines)


def test_corollary_command():
    code, out = invoke("corollary", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [(r["m"], r["closed_form"], r["status"]) for r in rows] == [
        (2, 9, "PASS"),
        (3, 9, "PASS"),
        (4, 25, "PASS"),
        (5, 49, "PASS"),
        (6, 49, "PASS"),
        (7, 81, "PASS"),
        (8, 121, "PASS"),
    ]


def test_corollary_downward_scan_matches_upward_reference():
    # the largest extendable n is the first hit scanning down from the
    # closed form + 50; scanning every n upward gives the same rows
    code, out = invoke("corollary", "40", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    expected = []
    for m in range(2, 41):
        closed = max_extendable_n(m)
        hits = [n for n in range(2 * m, closed + 51) if is_extendable(n, m)]
        scan_max = max(hits) if hits else None
        status = "PASS" if scan_max == closed else "FAIL"
        expected.append({"m": m, "closed_form": closed, "scan_max": scan_max, "status": status})
    assert rows == expected


def test_sub2_flags():
    code, out = invoke("sub2", "9", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    reference = {tuple(r["families"]): r for r in results["reference"]}
    assert reference[("S1+", "S1-")]["status"] == "FLAG"
    assert reference[("S1+", "S1-")]["computed_total"] == 30
    assert reference[("S1+", "S3-", "S4-")]["status"] == "PASS"
    assert reference[("S1-", "S3+", "S4+")]["status"] == "PASS"

    code, out = invoke("sub2", "5", "--format", "json")
    results = json.loads(out)["results"]
    reference = {tuple(r["families"]): r for r in results["reference"]}
    assert reference[("S1+", "S1-")]["status"] == "FLAG"
    assert reference[("S1+", "S1-")]["computed_total"] == 8


def test_verify_command(tmp_path, capsys):
    path = tmp_path / "points.json"
    points = [["1", "1", "0", "0"], ["1", "0", "1", "0"], ["0", "1", "1", "0"]]
    path.write_text(json.dumps(points), encoding="utf-8")
    code, out = invoke("verify", str(path), "--m", "2", "--johnson")
    assert code == 0
    assert "valid: true" in out
    assert "spectrum: 2" in out

    mixed = [["0", "0"], ["1*sqrt(2)", "0"], ["0", "1*sqrt(2)"]]
    path.write_text(json.dumps(mixed), encoding="utf-8")
    code, out = invoke("verify", str(path), "--m", "2")
    assert code == 0
    assert "valid: true" in out
    assert "spectrum: 2, 4" in out

    path.write_text("[not json", encoding="utf-8")
    code, _ = invoke("verify", str(path), "--m", "2")
    assert code == 2

    capsys.readouterr()
    huge_radicand = '[["1*sqrt(' + "1" * 31 + ')", "0"]]'  # refused, not factored
    for bad in (
        '{"12": 1}',
        '"12"',
        "[[true, false], [false, true]]",
        "[[1, 0], [1.0, 0]]",  # a float equal to a coordinate already read
        '[["1/0", "0"]]',
        huge_radicand,
        "[" * 100_000,  # nested past the recursion limit of the JSON decoder
    ):
        path.write_text(bad, encoding="utf-8")
        code, out = invoke("verify", str(path), "--m", "2")
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), bad
        assert err.startswith("cannot read point set: ") and err.count("\n") == 1, (bad, err)


# each string with this radicand costs about 0.1 s of trial division
LARGE_RADICAL = "sqrt(999999999989)"


def test_verify_parses_each_distinct_coordinate_once(tmp_path, monkeypatch, capsys):
    strings = [f"1+1*{LARGE_RADICAL}", "0", f"1*{LARGE_RADICAL}", "1"]
    rows = [[strings[i % 4], strings[(i // 4) % 4]] for i in range(200)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    calls = []
    original = jdist.cli.parse_quad

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(jdist.cli, "parse_quad", counted)
    start = time.perf_counter()
    assert main(["verify", str(path), "--m", "20"]) == 0
    assert time.perf_counter() - start < 2
    assert sorted(calls) == sorted(strings)
    # the spectrum orders values over the large radicand
    assert f"2*{LARGE_RADICAL}" in capsys.readouterr().out

    # the first bad term in file order is the one named
    rows[150][1], rows[120][0], rows[180][0] = "1/0", "2*sqrt(x)", "2*sqrt(x)"
    path.write_text(json.dumps(rows), encoding="utf-8")
    assert main(["verify", str(path), "--m", "20"]) == 2
    err = capsys.readouterr().err
    assert err == "cannot read point set: cannot parse scalar term '2*sqrt(x)'\n"


def test_verify_factors_only_while_parsing(monkeypatch, capsys):
    # orderings and exact values of keys merge squarefree terms and factor
    # nothing: the one factorization per radical term of a distinct string
    # happens inside parse_quad
    calls, parsing = [], []
    factor, parse = jdist.exactnum.squarefree_decompose, jdist.cli.parse_quad

    def counted_factor(n):
        calls.append(n)
        return factor(n)

    def counted_parse(text):
        before = len(calls)
        value = parse(text)
        parsing.append(len(calls) - before)
        return value

    monkeypatch.setattr(jdist.exactnum, "squarefree_decompose", counted_factor)
    monkeypatch.setattr(jdist.cli, "parse_quad", counted_parse)
    path = ROOT / "tests" / "golden" / "points_sub2_9.json"
    assert main(["verify", str(path), "--m", "4"]) == 0
    strings = {c for row in json.loads(path.read_text(encoding="utf-8")) for c in row}
    assert calls == [5, 5]
    assert sum(parsing) == sum(text.count("sqrt(") for text in strings) == len(calls)
    capsys.readouterr()


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    config = config_from_args(["n0", "12", "--format", "json", "--output", str(target)])
    assert run(config) == 0
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["results"]["special_factor"] == 12


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_output_path_that_cannot_be_written(where, tmp_path, capsys):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "report.txt"
    assert main(["n0", "18", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ")
    assert captured.err.count("\n") == 1


class Discard:
    """A stream that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_listing_streams_in_constant_memory(fmt):
    # the report is written as it is produced, so a listing of 11,479
    # families peaks about as high as one of 2,924 (built whole first, the
    # JSON of families 40 4 peaked at 26 MB); what grows from n = 25 to 40
    # is the memo of formatted numerators, 340 to 571 distinct peaks
    peaks = {}
    for n in (25, 40):
        config = config_from_args(["families", str(n), "4", "--format", fmt])
        tracemalloc.start()
        try:
            assert run(config, stream=Discard()) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] < 2**20 and peaks[40] - peaks[25] < 2**16, peaks


@pytest.mark.parametrize(
    "argv",
    [("families", "15000", "2"), ("families", "25", "4", "--cap", "10")],
    ids=["digit limit", "cap"],
)
def test_refused_listing_leaves_the_output_file_alone(argv, tmp_path, capsys):
    # every check runs before --output is opened
    target = tmp_path / "report.txt"
    target.write_bytes(b"kept\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    elif argv[1] == "15000":
        pytest.skip("no int-to-str digit limit")
    try:
        assert main([*argv, "--output", str(target)]) == 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert target.read_bytes() == b"kept\n"
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_closed_stdout_pipe_is_one_error_line():
    # families 40 4 prints 0.9 MB, far more than a pipe holds, so the child
    # is still writing when the reader takes one line and closes the pipe
    with subprocess.Popen(
        [sys.executable, "-m", "jdist.cli", "families", "40", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
    ) as proc:
        assert proc.stdout.readline() == b"families for n=40, m=4: 11479\n"
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("n, m", [(12, 3), (36, 3), (16, 4)])
def test_families_listing_formats_each_family_own_values(n, m, capsys):
    # a listing formats each distinct numerator over n once; every level and
    # peak must still be its own family's, over several reduced denominators
    assert main(["families", str(n), str(m), "--format", "json"]) == 0
    first = capsys.readouterr().out
    listed = json.loads(first)["results"]["families"]
    assert len(listed) == len(list(enumerate_families(Parameters(n, m))))
    denominators = set()
    for e in listed:
        fam = CandidateFamily(Parameters(n, m), e["k0"], tuple(e["k"]))
        assert e["levels"] == [format_ratio(v, n) for v in fam.scaled_levels()], e
        assert e["peak_sq_dist"] == format_ratio(scaled_peak(n, m, fam.offset, fam.counts), n), e
        denominators.update(text.partition("/")[2] or "1" for text in e["levels"])
    assert len(denominators) > 3
    # nothing carries over from one call to the next
    assert main(["families", str(n), str(m), "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_determinism_byte_identical():
    for argv in (
        ("classify", "9", "3", "--format", "json"),
        ("tables", "--m", "5", "--format", "csv"),
        ("sub2", "8", "--format", "json"),
        ("families", "8", "3", "--format", "csv"),
    ):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second


def test_json_reports_validate_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    points = tmp_path / "points.json"
    points.write_text('[["1","1","0"],["1","0","1"],["0","1","1"]]', encoding="utf-8")
    for argv in (
        ("n0", "18"),
        ("predicate", "9", "2"),
        ("families", "9", "2", "--addable"),
        ("classify", "9", "2"),  # one run per note: all spectra inside,
        ("classify", "10", "2"),  # no addable family,
        ("classify", "9", "3"),  # a perfect matching,
        ("classify", "9", "4", "--cap", "100"),  # over the cap,
        ("classify", "9", "4", "--budget", "2000"),  # the search budget spent
        ("tables", "--m", "5"),
        ("sub2", "8"),
        ("corollary", "5"),
        ("verify", str(points), "--m", "2"),
    ):
        _, out = invoke(*argv, "--format", "json")
        jsonschema.validate(json.loads(out), schema)

    # results are checked too: family levels are exact text, not JSON numbers
    _, out = invoke("families", "9", "2", "--addable", "--format", "json")
    report = json.loads(out)
    report["results"]["families"][0]["levels"] = [2 / 3, -1 / 3]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, schema)


def test_entry_point_and_invalid_args():
    proc = subprocess.run(
        [sys.executable, "-m", "jdist.cli", "n0", "18"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"

    proc = subprocess.run(
        [sys.executable, "-m", "jdist.cli", "predicate", "9"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 2

    proc = subprocess.run(
        [sys.executable, "-m", "jdist.cli", "predicate", "9", "200"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 2

    for argv in (
        ["classify", "9", "4", "--budget", "-1"],
        ["classify", "9", "4", "--cap", "-1"],
        ["verify", "points.json", "--m", "0"],
        ["verify", "points.json", "--m", "-3"],
        ["corollary", "1"],
        ["corollary", "-2"],
        ["corollary", "1001"],
        ["n0", "18", "--budget", "many"],
        ["classify", "9", "4", "--budget", "many"],
    ):
        with pytest.raises(SystemExit) as exc:
            config_from_args(argv)
        assert exc.value.code == 2, argv
    assert config_from_args(["classify", "9", "4", "--budget", "0"]).budget == 0


# one valid command line per subcommand, and the options each one takes
COMMAND_LINES = {
    "n0": ["n0", "18"],
    "predicate": ["predicate", "9", "2"],
    "families": ["families", "9", "3"],
    "classify": ["classify", "9", "3"],
    "tables": ["tables", "--m", "3"],
    "sub2": ["sub2", "5"],
    "corollary": ["corollary", "8"],
    "verify": ["verify", "points.json", "--m", "2"],
}
OPTIONS = {"budget": {"classify"}, "cap": {"classify", "families"}}


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("command", sorted(COMMAND_LINES))
def test_budget_and_cap_only_where_they_act(command, option, capsys):
    argv = COMMAND_LINES[command] + [f"--{option}", "7"]
    if command in OPTIONS[option]:
        assert getattr(config_from_args(argv), option) == 7
        return
    with pytest.raises(SystemExit) as exc:
        config_from_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: jdist {command} ")
    assert f"jdist {command}: error: unrecognized arguments: --{option} 7" in err


def test_tables_searches_each_row_at_the_fixed_budget(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        bound = inspect.signature(classify).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return classify(*args, **kwargs)

    monkeypatch.setattr(jdist.cli, "classify", recording)
    code, _ = invoke("tables", "--m", "3")
    assert code == 0
    assert [call["params"] for call in calls] == [Parameters(8, 3), Parameters(9, 3)]
    assert all((call["budget"], call["cap"]) == (20_000, DEFAULT_CAP) for call in calls)


def test_json_echoes_the_options_the_command_takes():
    _, out = invoke("classify", "9", "3", "--budget", "0", "--format", "json")
    assert json.loads(out)["arguments"] == {
        "n": 9,
        "m": 3,
        "budget": 0,
        "cap": DEFAULT_CAP,
        "format": "json",
    }
    _, out = invoke("families", "9", "2", "--addable", "--cap", "0", "--format", "json")
    assert json.loads(out)["arguments"] == {
        "n": 9,
        "m": 2,
        "addable_only": True,
        "cap": 0,
        "format": "json",
    }


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    # one parser serves every call in a process; a usage error or --help
    # between calls must leave each output as a fresh process writes it
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    for argv in (
        ["families", "9", "3"],
        ["families", "9", "x"],
        ["classify", "9", "3", "--format", "csv"],
        ["--help"],
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "jdist.cli", *argv],
            capture_output=True,
            cwd=ROOT,
            env=os.environ,
        )
        got = (code, captured.out.encode("utf-8"), captured.err.encode("utf-8"))
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert build_parser() is build_parser()
    first, second = config_from_args(["n0", "18"]), config_from_args(["n0", "18"])
    assert first is not second and first == second


def test_tables_reference_row_not_reached(monkeypatch):
    monkeypatch.setitem(TABLES_EXPECTED, 2, {9: (9, 45, "exact"), 10: (1, 46, "exact")})
    code, out = invoke("tables", "--m", "2")
    assert code == 1  # a FAIL row is an error for the caller, not only in the report
    assert out.splitlines()[-1] == "  10       -         - FAIL"
    code, out = invoke("tables", "--m", "2", "--format", "csv")
    assert out.splitlines()[-1] == "10,2,*,,,FAIL"


def test_sub2_reference_fail_exit_code(monkeypatch):
    monkeypatch.setitem(SUB2_EXPECTED, 6, [(("S1+", "S4-"), 7, 16, False)])
    code, out = invoke("sub2", "6")
    assert code == 1
    assert out.splitlines()[-1] == "    S1+ + S4-: [16]  FAIL"


def test_large_sizes_without_addable_families_finish():
    # both used to run past an 8 s timeout enumerating every candidate family
    start = time.perf_counter()
    code, out = invoke("classify", "200", "8", "--format", "json")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert json.loads(out)["results"]["addable_families"] == []

    start = time.perf_counter()
    code, out = invoke("families", "80", "8", "--addable")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (0, "families for n=80, m=8: 0\n")


def test_families_listing_is_capped():
    # the closed-form count refuses the listing before any family is built
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "jdist.cli", "families", "80", "8"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    code, out = invoke("families", "25", "4", "--cap", "2924", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 1 + 2924
    with pytest.raises(ValueError, match="at least 2924 families exceed the cap 2923"):
        invoke("families", "25", "4", "--cap", "2923")


def test_sub2_large_n_up_to_the_factorization_bound(capsys):
    # families are decided with no orbit built, so n is bounded only by the
    # factorization of the discriminants
    for n in (201, 10000):
        code, out = invoke("sub2", str(n))
        assert code == 0, n
        assert f"  johnson points: {math.comb(n - 1, 2)}" in out.splitlines(), n

    # the largest n below the bound, in a child process that reports its own
    # peak RSS (ru_maxrss is in kilobytes on Linux): no point is built, so
    # the peak stays that of the interpreter
    child = (
        "import resource, sys; from jdist.cli import main; code = main(sys.argv[1:]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "sub2", "353552"], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert f"  johnson points: {math.comb(353551, 2)}" in proc.stdout.splitlines()
    assert int(proc.stderr) < 100 * 1024

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "jdist.cli", "sub2", "353553"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert time.perf_counter() - start < 0.5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "factorization bound" in proc.stderr
    # below 5 is still an error line from the solver, not a usage error
    assert main(["sub2", "4"]) == 2
    assert capsys.readouterr().err == "error: need n >= 5, got 4\n"

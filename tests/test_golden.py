"""Byte-for-byte reports: every format of a set of CLI runs against files in golden/."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from jdist.cli import config_from_args, main
from jdist.exactnum import format_quad
from jdist.families import CandidateFamily, Parameters
from jdist.maximality import classify, four_distance_witness_points

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SUFFIX = {"text": "txt", "json": "json", "csv": "csv"}

# (file stem, argv, exit code); each case runs in all three formats
CASES = [
    ("n0_18", ["n0", "18"], 0),
    ("predicate_9_2", ["predicate", "9", "2"], 0),
    ("families_9_2_addable", ["families", "9", "2", "--addable"], 0),
    ("families_9_3", ["families", "9", "3"], 0),
    ("families_49_5_addable", ["families", "49", "5", "--addable"], 0),
    ("classify_9_2", ["classify", "9", "2"], 0),
    ("classify_10_2", ["classify", "10", "2"], 0),
    ("classify_9_3", ["classify", "9", "3"], 0),
    ("classify_9_4_budget_2000", ["classify", "9", "4", "--budget", "2000"], 3),
    ("classify_9_4_cap_100", ["classify", "9", "4", "--cap", "100"], 3),
    ("classify_25_8", ["classify", "25", "8"], 3),
    ("tables_m3", ["tables", "--m", "3"], 0),
    ("tables_m4", ["tables", "--m", "4"], 3),
    ("tables_m5", ["tables", "--m", "5"], 0),
    ("sub2_5", ["sub2", "5"], 0),
    ("sub2_9", ["sub2", "9"], 0),
    ("sub2_17", ["sub2", "17"], 0),
    ("corollary_8", ["corollary", "8"], 0),
    ("verify_points3", ["verify", "tests/golden/points3.json", "--m", "2", "--johnson"], 0),
    # union_points(9, ("S1+", "S1-", "S2+")): rational and irrational
    # distances in one sorted spectrum
    ("verify_points_sub2_9", ["verify", "tests/golden/points_sub2_9.json", "--m", "4"], 0),
    # four_distance_witness_points(): the 258-point witness the benchmark verifies
    (
        "verify_points_witness_9_4",
        ["verify", "tests/golden/points_witness_9_4.json", "--m", "4", "--johnson"],
        0,
    ),
]


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
@pytest.mark.parametrize("stem, argv, code", CASES, ids=[case[0] for case in CASES])
def test_report_bytes(stem, argv, code, fmt, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the verify report echoes its relative file path
    assert main(argv + ["--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / f"{stem}.{SUFFIX[fmt]}").read_bytes()


def test_witness_points_file_is_the_construction():
    rows = json.loads((GOLDEN / "points_witness_9_4.json").read_text(encoding="utf-8"))
    assert rows == [[format_quad(c) for c in p] for p in four_distance_witness_points()]


# the library returns structure only: each classify run walks its report down
# to these leaves, and every line of the reports above is worded in cli.py
REPORT_LEAVES = (CandidateFamily, Parameters, int, Fraction, type(None))


def text_in(value, path: str) -> list:
    """The paths inside ``value`` that hold anything but a leaf, a tuple or a
    dataclass made of them, a ``str`` above all."""
    if isinstance(value, REPORT_LEAVES):
        return []
    if isinstance(value, tuple):
        return [p for i, item in enumerate(value) for p in text_in(item, f"{path}[{i}]")]
    if dataclasses.is_dataclass(value):
        return [
            p
            for field in dataclasses.fields(value)
            for p in text_in(getattr(value, field.name), f"{path}.{field.name}")
        ]
    return [f"{path}: {type(value).__name__}"]


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, id=stem) for stem, argv, _ in CASES if argv[0] == "classify"]
    + [pytest.param(["classify", "32", "7"], id="classify_32_7")],  # the digest case
)
def test_classification_report_holds_no_text(argv):
    config = config_from_args(argv)
    report = classify(Parameters(config.n, config.m), budget=config.budget, cap=config.cap)
    assert text_in(report, "report") == []


def assert_digest(stem, argv, fmt, capsys):
    """The report's length and sha256 equal those in ``golden/{stem}.digest.json``."""
    digests = json.loads((GOLDEN / f"{stem}.digest.json").read_text(encoding="utf-8"))
    assert main(argv + ["--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = captured.out.encode("utf-8")
    assert {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()} == digests[fmt]


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
def test_largest_listing_digest(fmt, capsys):
    # families 25 4 is the benchmark's heaviest report (979 KB as JSON), so
    # its bytes are pinned by length and sha256 rather than by a file
    assert_digest("families_25_4", ["families", "25", "4"], fmt, capsys)


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
@pytest.mark.parametrize("n, m", [(16, 5), (12, 6), (300, 2)])
def test_deep_listing_digests(n, m, fmt, capsys):
    # the only listings that walk multiplicity vectors of depth 5 and 6
    # (3,875 and 6,187 families) and one whose orbit sizes run to 89 digits,
    # each stepped from its neighbour's, pinned by length and sha256
    assert_digest(f"families_{n}_{m}", ["families", str(n), str(m)], fmt, capsys)


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
def test_complement_matching_digest(fmt, capsys):
    # classify 32 7 is the only report of the complement-matching structure
    # at this scale: 15,904 candidate points, 2**496 maximal cliques
    assert_digest("classify_32_7", ["classify", "32", "7"], fmt, capsys)


SUB2_SWEEP = json.loads((GOLDEN / "sub2_sweep.digest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
def test_sub2_sweep_digests(fmt, capsys):
    # every sub2 report of n = 4..40, 50, 64, 100, 150, 199, 200 and 1000 by
    # exit code, length and sha256 of its output: n = 4 is refused with an
    # empty report, every other n covers the perfect-square (n = 5, 8) and
    # vanishing (n = 10) discriminants and the rational and radical roots
    for n, pinned in SUB2_SWEEP.items():
        assert main(["sub2", n, "--format", fmt]) == pinned["code"], n
        captured = capsys.readouterr()
        assert (captured.err == "") == (pinned["code"] == 0), n
        data = captured.out.encode("utf-8")
        assert {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()} == pinned[fmt], n

"""Command-line interface: output formats, determinism, config precedence,
exit codes, and the verification ledger."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import idstat.symmetry as symmetry
import idstat.verify as verify
from idstat import cli
from idstat.cli import HANDLERS, main
from idstat.config import RunConfig, load_config, parse_config_file
from idstat.errors import InputError
from idstat.render import Report, canonical_json, csv_text, fmt_float
from test_argv_property import CASES as PROPERTY_CASES, SEED as PROPERTY_SEED, _actions, _argv, _files, _seeds
from test_golden import CORPUS, FORMATS


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


# -- render layer -------------------------------------------------------


def test_canonical_json_shape():
    text = canonical_json({"b": 0.1, "a": [True, None, "x"], "n": 3})
    assert text == '{"a":[true,null,"x"],"b":0.10000000000000001,"n":3}'


def test_canonical_json_int_lists():
    # a list of plain ints goes out item by item; bools and floats keep their own text
    text = canonical_json([[0, 2, -10], (3,), [True, 0], [1, 2.5], []])
    assert text == "[[0,2,-10],[3],[true,0],[1,2.5],[]]"


def test_canonical_json_int_rows():
    # rows of plain ints go out in one C-encoder call; a row holding a bool,
    # a float or an int subclass, and an empty row, keep each item's own text
    class Tagged(int):
        def __str__(self):
            return f"tagged{int(self)}"

    rows, head = [[0, 2, -10], [3], [10**30, 0]], "[[0,2,-10],[3],[1000000000000000000000000000000,0]"
    assert canonical_json(rows) == head + "]"
    for row, text in (([True, 0], "[true,0]"), ([1, 0.1, -0.0, 2.0], "[1,0.10000000000000001,0,2]"),
                      ([Tagged(4), 1], "[tagged4,1]"), ([], "[]")):
        assert canonical_json(rows + [row]) == f"{head},{text}]"
    assert canonical_json([[], []]) == "[[],[]]"
    with pytest.raises(InputError, match="non-finite"):
        canonical_json(rows + [[1, math.nan]])


def test_canonical_json_records():
    # a list of dicts with one set of str keys, sorted and encoded once,
    # reads as each dict rendered alone; any other list of dicts keeps each
    # item's own path
    class Mapping(dict):
        pass

    records = [{"state": ["a", "b"], "exact": "1/2", "float": 0.5}, {"float": -0.0, "exact": "-1", "state": []},
               {"exact": None, "state": {"z": 1, "a": [True]}, "float": 2}]
    others = [{"exact": "1", "float": 1.0}, {"only": 1}, {}, {"y": 1, "x": 2}, Mapping(b=1, a=2)]
    for items in [records, *([*records, other] for other in others), [{"b": 1}, {"b": 2}], [{}, {}],
                  [{"a": 1, "\u00e9": 2.5}]]:
        assert canonical_json(items) == "[" + ",".join(map(canonical_json, items)) + "]"
    assert canonical_json(records[:1]) == '[{"exact":"1/2","float":0.5,"state":["a","b"]}]'
    for bad in ([{1: "a", 2: "b"}, {1: "c", 2: "d"}], {1: "a", "b": 2}, {"b": 2, 1: "a"},
                [{"a": 1, "b": 2}, {"a": 3, 2: 4}], [{"a": 1, "b": 2}, {"a": 3, "b": 4, 2: 5}]):
        with pytest.raises(InputError, match="JSON object keys must be strings"):
            canonical_json(bad)
    with pytest.raises(InputError, match="non-finite"):
        canonical_json([*records, {"exact": "x", "float": math.inf, "state": []}])


def test_canonical_json_str_lists():
    # a list of plain strs is joined at once; mixed with ints, None, bools or
    # a str enum, each item keeps its own text
    lists = [["a", "é", 'q"\\', ""], ("λ",), ["a", 1], [None, "b"], ["c", True, False],
             [symmetry.SymmetryTag.MIXED, "d"], [0, "e", None, True]]
    text = canonical_json(lists)
    assert text == ('[["a","\\u00e9","q\\"\\\\",""],["\\u03bb"],["a",1],[null,"b"],["c",true,false],'
                    '["mixed","d"],[0,"e",null,true]]')
    assert text == json.dumps(lists, ensure_ascii=True, separators=(",", ":"))


class _Count(int):
    pass


_KEYS = ("a", "b", "exact", "state", "\u00e9")
_STRS = ("", "a", "x y", "\u00e9", "\u03bb\u2192\U0001d49c", 'q"\\', "\n")
#: One draw of each scalar kind: a list of one kind shares one exact type.
_SCALAR_DRAWS = (
    lambda rng: rng.choice(_STRS),
    lambda rng: rng.random() < 0.5,
    lambda rng: rng.randint(-3, 3) if rng.random() < 0.8 else rng.randint(-10**30, 10**30),
    lambda rng: _Count(rng.randint(-3, 3)),
    lambda rng: rng.choice([0.5, -0.0, 0.0, 2.0, 1e-300, -1.5e300, rng.uniform(-1e3, 1e3)]),
    lambda rng: None,
    lambda rng: symmetry.SymmetryTag.MIXED,
)
_SHAPES = ("scalars", "int rows", "str rows", "records", "loose records", "tuples", "mixed")


def _draw(rng, shape, depth=0):
    """One list item of the given shape; records and mixed items nest."""
    if shape == "scalars" or depth > 2:
        return rng.choice(_SCALAR_DRAWS)(rng)
    if shape == "int rows":
        return [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
    if shape == "str rows":
        return [rng.choice(_STRS) for _ in range(rng.randint(0, 4))]
    if shape in ("records", "loose records"):
        keys = _KEYS[:3] if shape == "records" else rng.sample(_KEYS, rng.randint(0, 4))
        return {key: _draw(rng, rng.choice(_SHAPES), depth + 1) for key in keys}
    if shape == "tuples":
        return tuple(_draw(rng, "scalars") for _ in range(rng.randint(0, 3)))
    return [_draw(rng, rng.choice(_SHAPES), depth + 1) for _ in range(rng.randint(0, 3))]


def _odd(rng, shape, item):
    """An item that breaks the shape's run: a bool, float or int subclass
    in an int row, a non-str in a str row, a record with other keys, or an
    item of another shape."""
    if shape == "int rows":
        return [*item, rng.choice([True, False, 1.5, -0.0, _Count(7)])]
    if shape == "str rows":
        return [*item, rng.choice([1, None, True, symmetry.SymmetryTag.NONE])]
    if shape == "records":
        other = dict(item)
        change = rng.choice(["add", "drop", "rename"])
        if change != "add":
            del other[rng.choice(_KEYS[:3])]
        if change != "drop":
            other[rng.choice(_KEYS[3:])] = _draw(rng, "scalars")
        return other
    return _draw(rng, rng.choice(_SHAPES))


def _plain(value):
    """What json.loads reads back: tuples as lists."""
    if isinstance(value, (list, tuple)):
        return list(map(_plain, value))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def test_canonical_json_lists_render_as_their_items():
    # seeded lists of one shape, some with one item that breaks it: each
    # reads as its items rendered alone and joined, and json.loads reads back
    # the values (tuples as lists; floats, -0.0 and int subclasses equal)
    rng = random.Random(20261020)
    for _ in range(400):
        shape = rng.choice(_SHAPES)
        kind = rng.choice(_SCALAR_DRAWS)
        draw = (lambda: kind(rng)) if shape == "scalars" else (lambda: _draw(rng, shape))
        xs = [draw() for _ in range(rng.randint(0, 8))]
        if xs and rng.random() < 0.5:
            at = rng.randrange(len(xs))
            xs[at] = _odd(rng, shape, xs[at])
        text = canonical_json(xs)
        assert text == "[" + ",".join(map(canonical_json, xs)) + "]", xs
        assert json.loads(text) == _plain(xs), xs
        assert text.isascii()


def test_csv_none_is_an_empty_cell():
    assert csv_text([["a", None, 1.5, False]]) == "a,,1.5,false\n"


def test_fmt_float_17_digits():
    assert fmt_float(1.0) == "1"
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(-0.0) == "0"
    with pytest.raises(InputError):
        fmt_float(float("nan"))


def test_report_rejects_unknown_format():
    with pytest.raises(InputError):
        Report({}, lambda data: [], lambda data: "").render("xml")


# -- config layer -------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = RunConfig()
    assert cfg.mode == "dimensionless" and cfg.output == "pretty"
    with pytest.raises(InputError):
        RunConfig(mode="imperial")
    with pytest.raises(InputError):
        RunConfig(output="yaml")
    assert list(RunConfig.__slots__) == ["mode", "output", "seed"]


def test_config_file_parsing(tmp_path):
    path = tmp_path / "idstat.cfg"
    path.write_text("# comment\noutput = json\nmode=si\n\nseed=9  # inline\n")
    assert parse_config_file(str(path)) == {"output": "json", "mode": "si", "seed": 9}
    path.write_text("seed=not-a-number\n")
    with pytest.raises(InputError):
        parse_config_file(str(path))
    path.write_text("volume=3\n")
    with pytest.raises(InputError):
        parse_config_file(str(path))


def test_config_precedence(tmp_path):
    path = tmp_path / "idstat.cfg"
    path.write_text("output=json\nseed=3\n")
    cfg = load_config(str(path), environ={})
    assert cfg.output == "json" and cfg.seed == 3
    cfg = load_config(str(path), environ={"IDSTAT_OUTPUT": "csv"})
    assert cfg.output == "csv" and cfg.seed == 3
    cfg = load_config(str(path), environ={"IDSTAT_OUTPUT": "csv"}, overrides={"output": "pretty"})
    assert cfg.output == "pretty"


# -- subcommand happy paths ----------------------------------------------


def test_symmetrize_two_particles_json(capsys):
    code, out, _ = run_cli(["symmetrize", "-n", "2", "-l", "a,b", "-p", "S", "--output", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["zero_vector"] is False
    assert [t["exact"] for t in data["terms"]] == ["1/2*sqrt(2)", "1/2*sqrt(2)"]
    assert data["norm_squared"]["exact"] == "1"


def test_symmetrize_zero_vector_exits_zero(capsys):
    code, out, _ = run_cli(["symmetrize", "-l", "a,a,b", "-p", "A", "--output", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["zero_vector"] is True and data["terms"] == []


def test_symmetrize_signed_terms(capsys):
    code, out, _ = run_cli(["symmetrize", "-l", "a,b,c", "-p", "A", "--output", "json"], capsys)
    data = json.loads(out)
    assert code == 0 and len(data["terms"]) == 6
    signs = {t["exact"][0] == "-" for t in data["terms"]}
    assert signs == {True, False}


def test_mixed_basis_counts(capsys):
    code, out, _ = run_cli(["mixed-basis", "--output", "json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert [v["name"] for v in data["vectors"]] == ["s1", "s2", "s1p", "s2p"]
    code, out, _ = run_cli(["mixed-basis", "--full", "--output", "json"], capsys)
    assert len(json.loads(out)["vectors"]) == 6


def test_decompose_product_state(capsys):
    code, out, _ = run_cli(["decompose", "--product", "--levels", "a,b,c", "--output", "json"], capsys)
    data = json.loads(out)
    assert code == 0
    exact = [c["exact"] for c in data["coefficients"]]
    assert exact == ["1/6*sqrt(6)", "-1/6*sqrt(6)", "1/3*sqrt(3)", "0", "1/3*sqrt(3)", "0"]
    assert data["residual_norm_squared"]["exact"] == "0"
    assert data["sum_of_squares"]["exact"] == "1"


def test_classify_member_and_parity(capsys):
    code, out, _ = run_cli(["classify", "--member", "s2p", "--levels", "a,b,c", "--output", "json"], capsys)
    data = json.loads(out)
    assert code == 0 and data["tag"] == "mixed" and data["pair"] == 2 and data["member"] == 2
    code, out, _ = run_cli(["classify", "--parity", "S", "--levels", "a,b", "--output", "json"], capsys)
    assert json.loads(out)["tag"] == "symmetric"


@pytest.mark.parametrize("triple", ["a,b,c", "3,8,5"])
def test_classify_mixed_members_on_every_level_order(triple, capsys):
    for labels in itertools.permutations(triple.split(",")):
        levels = ",".join(labels)
        for name, pair, member in (("s1", 1, 1), ("s2", 1, 2), ("s1p", 2, 1), ("s2p", 2, 2)):
            code, out, _ = run_cli(["classify", "--member", name, "--levels", levels, "--output", "json"], capsys)
            data = json.loads(out)
            assert code == 0 and (data["tag"], data["pair"], data["member"]) == ("mixed", pair, member), (levels, name)
    code, out, _ = run_cli(["classify", "--member", "s1", "--levels", "c,a,b"], capsys)
    assert out == "member:s1 state on (c,a,b): tag = mixed, pair = 1, member = 1\n"


def test_expect_mixed_energy(capsys):
    code, out, _ = run_cli(
        ["expect", "--member", "s1", "--levels", "a,b,c", "--epsilon", "1,2,3",
         "--particle", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert data["exact"] == "7/4" and data["float"] == 1.75


def test_expect_symmetric_energy(capsys):
    code, out, _ = run_cli(
        ["expect", "--parity", "S", "--levels", "a,b,c", "--epsilon", "1,2,3",
         "--particle", "2", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert data["exact"] == "2" and data["float"] == 2.0


def test_expect_box_position(capsys):
    # Each level weight is 1/2 exactly and the diagonal entry 0.5, so the
    # float path has no rounding to do and prints the box center itself.
    args = ["expect", "--parity", "S", "--levels", "1,2", "--box-x", "--length", "1", "--particle", "1"]
    code, out, _ = run_cli(args + ["--output", "json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["exact"] is None
    assert data["float"] == 0.5
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and out == "<box-x(L=1.0)> for particle 1 of parity:S state: 0.5\n"
    args[4] = "1,100000"  # the operator is a rule: no 10^5 x 10^5 table is built
    assert run_cli(args, capsys) == (0, out, "")


def test_expect_box_position_where_entries_round_apart(capsys):
    # At L = 0.7 the box-x entries (5, 6) and (6, 5), evaluated separately,
    # round to different floats.
    code, out, err = run_cli(
        ["expect", "--parity", "S", "--levels", "1,2,6", "--box-x", "--length", "0.7",
         "--particle", "1", "--output", "json"],
        capsys,
    )
    assert code == 0, err
    assert abs(json.loads(out)["float"] - 0.35) <= 1e-10


def test_occupations_fd(capsys):
    code, out, _ = run_cli(["occupations", "--n-levels", "4", "-N", "2", "--stat", "fd", "--output", "json"], capsys)
    data = json.loads(out)
    assert code == 0 and data["count"] == 6 and data["closed_form"] == 6
    assert all(sum(v) == 2 and max(v) == 1 for v in data["states"])


def test_occupations_at_the_state_bound_keep_only_int_rows():
    argv = ["occupations", "--n-levels", "20", "-N", "10", "--stat", "fd", "--output", "json"]
    args = cli._parse(argv)
    tracemalloc.start()
    try:
        report = HANDLERS["occupations"](args, RunConfig(output="json"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states = report.data["states"]
    assert report.data["count"] == len(states) == 184756
    assert states[0] == [1] * 10 + [0] * 10 and states[-1] == [0] * 10 + [1] * 10
    assert {type(c) for row in states[::997] for c in row} == {int}
    # the rows take about 42 MB; a second object per state would add over 100 MB
    assert peak < 50_000_000, peak


def test_partition_canonical_fd(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2", "--beta", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0 and data["method"] == "generating-function"
    expected = math.exp(-1) + math.exp(-2) + math.exp(-3)
    assert math.isclose(data["Z"], expected, rel_tol=1e-15)
    assert math.isclose(data["F"], -math.log(expected), rel_tol=1e-14)
    assert "F = -kT*ln(Z)" in data["note"]


def test_partition_grand_be(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "be", "--levels", "0", "--mu", "-0.6931471805599453",
         "--beta", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert math.isclose(data["Xi"], 2.0, rel_tol=1e-12)


@pytest.mark.parametrize("mu, beta", [("-1e-3", "1"), ("-2.5E+1", "1"), ("-.5e1", "2"), ("-3e-294", "1e-30")])
def test_negative_value_in_exponent_form_is_a_value(mu, beta, capsys):
    # spaced, attached, and spaced with an abbreviated option: one answer,
    # byte for byte
    base = ["partition", "--stat", "be", "--levels", "0,1"]
    spaced = run_cli([*base, "--mu", mu, "--beta", beta], capsys)
    assert spaced[0] == 0 and spaced[2] == ""
    assert run_cli([*base, f"--mu={mu}", "--beta", beta], capsys) == spaced
    assert run_cli([*base, "--mu", mu, "--bet", beta], capsys) == spaced


SPACED_NEGATIVE_STARTS = [
    ["partition", "--stat", "be", "--levels", "-1,0", "-N", "2", "--beta", "1"],
    ["partition", "--stat", "be", "--levels", "-1e-3,2", "-N", "2", "--beta", "1"],
    ["expect", "--levels", "1,2", "--parity", "S", "--epsilon", "-5/3,2", "--particle", "1"],
    ["expect", "--levels", "1,2", "--parity", "S", "--epsilon", "-0.5,2", "--particle", "1"],
    ["expect", "--levels", "1,2", "--parity", "S", "--epsilon", "-.5,2", "--particle", "1"],
]


def _negative_start(argv: list) -> int:
    return next(i for i, token in enumerate(argv) if re.match(r"-\.?\d", token))


@pytest.mark.parametrize("argv", SPACED_NEGATIVE_STARTS, ids=lambda argv: argv[_negative_start(argv)])
def test_value_that_starts_with_a_negative_number_reads_the_same_spaced(argv, capsys):
    # a list or rational whose first entry is negative: the spaced form
    # answers as the attached form does, byte for byte
    i = _negative_start(argv)
    spaced = run_cli(argv, capsys)
    assert spaced[0] == 0 and spaced[2] == ""
    assert run_cli([*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:]], capsys) == spaced


@pytest.mark.parametrize("levels", ["-x", "-.x", "-e3"])
def test_dash_and_no_digit_starts_no_value(levels, capsys):
    # "-" or "-." with no digit after it is not a negative number: spaced,
    # the option is left without its value, as argparse says
    argv = ["partition", "--stat", "be", "--levels", levels, "-N", "2", "--beta", "1"]
    assert run_cli(argv, capsys) == (2, "", "error: argument --levels: expected one argument\n")


def test_joined_short_option_is_still_an_option(capsys):
    # "-N5" starts with "-" and no digit: it stays -N with the value 5
    base = ["partition", "--stat", "be", "--levels", "0,1", "--beta", "1"]
    joined = run_cli([*base, "-N5"], capsys)
    assert joined[0] == 0 and joined[2] == ""
    assert run_cli([*base, "-N", "5"], capsys) == joined


def test_continuum_refuses_the_options_it_does_not_read(capsys):
    # --beta, --mu and every spectrum source: exit 2, one error line naming the option
    base = ["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "2", "--T", "1"]
    assert run_cli([*base, "--beta", "5", "--levels", "0,1", "--mu", "3"], capsys) == (
        2, "", "error: --continuum does not read --beta\n")
    for option, value in (("--mu", "3"), ("--levels", "0,1"), ("--spectrum-file", "x.csv"), ("--box1d", "5"),
                          ("--box3d", "5"), ("--dimensionless", "5")):
        assert run_cli([*base, option, value], capsys) == (2, "", f"error: --continuum does not read {option}\n")


def test_canonical_form_refuses_V(capsys):
    argv = ["partition", "--stat", "be", "--levels", "0,1", "-N", "2", "--beta", "1", "--V", "2"]
    assert run_cli(argv, capsys) == (2, "", "error: --V is read only with --continuum\n")


def test_grand_form_refuses_V(capsys):
    argv = ["partition", "--stat", "be", "--levels", "0,1", "--mu", "-1", "--beta", "1", "--V", "2"]
    assert run_cli(argv, capsys) == (2, "", "error: --V is read only with --continuum\n")


@pytest.mark.parametrize("command", ["classify", "decompose", "expect"])
def test_empty_parity_is_refused(command, capsys):
    # an empty --parity once named no state kind, and the product state answered
    argv = [command, "--parity", "", "--levels", "a,b,c"]
    if command == "expect":
        argv += ["--epsilon", "1,2,3", "--particle", "1"]
    assert run_cli(argv, capsys) == (2, "", "error: parity must be S or A, got ''\n")


#: Options a form never reads, each once ignored with exit 0: argv and the
#: one error line.
UNREAD_OPTIONS = {
    "partition-levels-length": (["partition", "--stat", "be", "--levels", "0,1", "-N", "2", "--beta", "1",
                                 "--length", "5"], "--levels does not read --length"),
    "partition-dimensionless-mass": (["partition", "--stat", "be", "--dimensionless", "4", "-N", "2", "--beta", "1",
                                      "--mass", "3"], "--dimensionless does not read --mass"),
    "partition-grand-levels-mass": (["partition", "--stat", "be", "--levels", "0,1", "--mu", "-1", "--beta", "1",
                                     "--mass", "2"], "--levels does not read --mass"),
    "partition-continuum-length": (["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "2", "--T",
                                    "1", "--length", "7"], "--continuum does not read --length"),
    "extensivity-sizes-n-list": (["extensivity", "--stat", "mb-nn", "--T", "1", "--sizes", "1:1,2:2",
                                  "--n-list", "5", "--per-volume", "9"], "--sizes does not read --n-list"),
    "expect-epsilon-length": (["expect", "--parity", "S", "--levels", "1,2", "--epsilon", "1,2", "--length", "3",
                               "--particle", "1"], "--epsilon does not read --length"),
    "partition-levels-mass": (["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2", "--beta", "1",
                               "--mass", "2"], "--levels does not read --mass"),
    "partition-dimensionless-length": (["partition", "--stat", "be", "--dimensionless", "4", "-N", "2", "--beta",
                                        "1", "--length", "2"], "--dimensionless does not read --length"),
    "partition-grand-levels-length": (["partition", "--stat", "fd", "--levels", "0,1", "--mu", "-1", "--beta", "1",
                                       "--length", "2"], "--levels does not read --length"),
    "extensivity-sizes-per-volume": (["extensivity", "--stat", "mb-nn", "--T", "1", "--sizes", "1:1,2:2",
                                      "--per-volume", "9"], "--sizes does not read --per-volume"),
}


@pytest.mark.parametrize("case", list(UNREAD_OPTIONS))
def test_option_the_form_never_reads_is_refused(case, capsys):
    argv, error = UNREAD_OPTIONS[case]
    assert run_cli(argv, capsys) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("option", ["--length", "--mass"])
def test_spectrum_file_form_never_reads_box_options(option, tmp_path, capsys):
    path = tmp_path / "spec.csv"
    path.write_text("energy\n0\n1\n")
    argv = ["partition", "--stat", "be", "--spectrum-file", str(path), "-N", "2", "--beta", "1"]
    assert run_cli(argv, capsys)[0] == 0
    assert run_cli([*argv, option, "2"], capsys) == (2, "", f"error: --spectrum-file does not read {option}\n")


#: A zero where the form reads the option: the parse refuses it, so the
#: handler's "not given" test never meets a zero it could read as 1.0.
ZERO_OPTIONS = {
    "partition-box1d-length": ["partition", "--stat", "be", "--box1d", "4", "-N", "2", "--beta", "1", "--length"],
    "partition-box3d-mass": ["partition", "--stat", "be", "--box3d", "2", "-N", "2", "--beta", "1", "--mass"],
    "partition-continuum-mass": ["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "2", "--T", "1",
                                 "--mass"],
    "extensivity-per-volume": ["extensivity", "--stat", "mb-nn", "--T", "1", "--per-volume"],
    "expect-box-x-length": ["expect", "--parity", "S", "--levels", "1,2", "--box-x", "--particle", "1", "--length"],
}


@pytest.mark.parametrize("case", list(ZERO_OPTIONS))
def test_zero_is_refused_where_the_option_is_read(case, capsys):
    argv = ZERO_OPTIONS[case]
    error = f"error: argument {argv[-1]}: expected a positive number, got '0'\n"
    assert run_cli([*argv, "0"], capsys) == (2, "", error)


def test_unread_options_take_their_value_where_read(capsys):
    # an omitted --length, --mass, --n-list or --per-volume reads as its old default
    for argv, given in (
        (["partition", "--stat", "be", "--box1d", "4", "-N", "2", "--beta", "1"], ["--length", "1", "--mass", "1"]),
        (["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "2", "--T", "1"], ["--mass", "1"]),
        (["extensivity", "--stat", "mb-nn", "--T", "1"], ["--n-list", "1,2,10,100,10000", "--per-volume", "1"]),
        (["expect", "--parity", "S", "--levels", "1,2", "--box-x", "--particle", "1"], ["--length", "1"]),
    ):
        omitted = run_cli(argv, capsys)
        assert omitted[0] == 0 and omitted == run_cli([*argv, *given], capsys), argv


def test_extensivity_without_discrete_refuses_box1d(capsys):
    argv = ["extensivity", "--stat", "mb-nn", "--T", "1", "--box1d", "5"]
    assert run_cli(argv, capsys) == (2, "", "error: --box1d is read only with --discrete\n")
    assert run_cli([*argv, "--discrete"], capsys)[0] == 0


def test_partition_continuum_mb(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "2", "--T", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    lam = 1.0 / math.sqrt(2.0 * math.pi)
    assert math.isclose(data["ln_Z"], 2.0 * math.log(1.0 / (2.0 * lam**3)), rel_tol=1e-14)
    assert math.isclose(data["thermal_wavelength"], lam, rel_tol=1e-15)


def test_partition_wide_spectrum(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "be", "--dimensionless", "30", "-N", "2", "--beta", "0.5", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0 and data["method"] == "generating-function"
    z = lambda beta: math.fsum(math.exp(-beta * n * n) for n in range(1, 31))
    assert math.isclose(data["Z"], (z(0.5) ** 2 + z(1.0)) / 2, rel_tol=1e-13)  # h_2


def _fd_ln_Z_50_digits(levels, n, beta):
    """ln e_n(x) with x_k = exp(-beta e_k) in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
        for level in levels:
            x = mpmath.exp(-mpmath.mpf(beta) * level)
            for j in range(n, 0, -1):
                e[j] += x * e[j - 1]
        return float(mpmath.log(e[n]))


@pytest.mark.parametrize("beta", ["1", "0.2"])
def test_partition_fd_cold_filled_against_mpmath(beta, capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "fd", "--dimensionless", "30", "-N", "10", "--beta", beta, "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    ref = _fd_ln_Z_50_digits([n * n for n in range(1, 31)], 10, float(beta))
    assert code == 0 and abs(data["ln_Z"] - ref) <= 1e-9
    assert math.isclose(data["F"], -ref / float(beta), rel_tol=1e-12)
    if beta == "1":
        assert math.isclose(data["Z"], 6.26e-168, rel_tol=1e-3)


def test_partition_be_high_ground_level(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "be", "--levels", "1000,1001,1002", "-N", "2", "--beta", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    h2 = sum(math.exp(-k) for k in (0, 1, 2, 2, 3, 4))
    assert code == 0 and data["Z"] is None
    assert math.isclose(data["ln_Z"], math.log(h2) - 2000.0, rel_tol=1e-15)
    assert data["F"] == -data["ln_Z"]


def test_partition_mb_high_ground_level(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "mb-nn", "--levels", "1000,1001", "-N", "2", "--beta", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0 and data["method"] == "closed-form"
    assert math.isclose(data["ln_Z"], 2 * (math.log1p(math.exp(-1)) - 1000.0) - 2 * math.log(2), rel_tol=1e-15)


def test_partition_be_twelve_in_twenty_levels_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["partition", "--stat", "be", "--dimensionless", "20", "-N", "12", "--beta", "0.01", "--output", "json"],
        capsys,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and math.isfinite(json.loads(out)["ln_Z"])


def test_partition_grand_fd_far_above_levels(capsys):
    # beta * mu = 800: log(1 + e^a) must not overflow
    code, out, _ = run_cli(
        ["partition", "--stat", "fd", "--levels", "0,0.001", "--mu", "800", "--beta", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0 and data["Xi"] is None
    assert math.isclose(data["ln_Xi"], 800.0 + 799.999, rel_tol=1e-15)


def test_partition_fd_overfilled_reports_zero(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "fd", "--levels", "0,1", "-N", "3", "--beta", "1", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0 and data["Z"] == 0.0 and data["ln_Z"] is None


# huge finite --beta: a zero ground level adds exactly 0 to ln Z, and an ln Z
# beyond the float range is refused rather than printed as the overfilled-FD Z = 0
HUGE_BETA = ["partition", "--stat", "be", "-N", "2", "--beta", "1e308", "--output", "json"]


def test_partition_be_huge_beta_on_a_zero_ground_level(capsys):
    code, out, _ = run_cli(HUGE_BETA + ["--levels", "0,1,2"], capsys)
    data = json.loads(out)
    assert code == 0 and data["ln_Z"] == 0.0 and data["Z"] == 1.0
    assert '"F":0,' in out


def test_partition_be_huge_beta_on_a_tiny_ground_level(capsys):
    # beta * N overflows, but ln Z = -beta N e0 = -2e8 does not
    code, out, _ = run_cli(HUGE_BETA + ["--levels", "1e-300,2e-300"], capsys)
    data = json.loads(out)
    assert code == 0 and math.isclose(data["ln_Z"], -2e8, rel_tol=1e-15)


@pytest.mark.parametrize("stat", ["be", "mb-nn"])
def test_partition_huge_beta_ln_z_out_of_float_range_refused(stat, capsys):
    # the true ln Z is about -2e308
    argv = ["partition", "--stat", stat, "--levels", "1,2", "-N", "2", "--beta", "1e308"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "out of float range" in err


@pytest.mark.parametrize("beta", ["5e-324", "1e-310"])
def test_partition_tiny_beta_F_out_of_float_range_refused(beta, capsys):
    # kT = 1 / beta overflows, so F = -kT ln Z is not finite
    argv = ["partition", "--stat", "be", "--levels", "0,1,2", "-N", "2", "--beta", beta]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "out of float range" in err and "beta" in err and "T is too large or beta too small" in err


EXTENSIVITY_OVERFLOW = {
    # -kT ln Z overflows for every row
    "F": ("1e308", "1,2"),
    # F = -1.3e308 is finite, but N F(V/N, 1) = -2.5e308 is not
    "defect": ("1e307", "10"),
}


@pytest.mark.parametrize("case", sorted(EXTENSIVITY_OVERFLOW))
def test_extensivity_huge_T_out_of_float_range_refused(case, capsys):
    T, n_list = EXTENSIVITY_OVERFLOW[case]
    argv = ["extensivity", "--stat", "be", "--discrete", "--T", T, "--n-list", n_list]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "out of float range" in err and f"T = {float(T)!r}" in err


def test_extensivity_n_list_past_the_float_range_refused(capsys):
    # V = per-volume * N has no float for a 401-digit N
    argv = ["extensivity", "--stat", "mb-nn", "--T", "1", "--n-list", "1" + "0" * 400]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "out of float range" in err and "--n-list" in err


@pytest.mark.parametrize("n_list", ["0", "-1", "2,0"])
def test_extensivity_n_list_below_one_refused_by_N(n_list, capsys):
    # V = per-volume * N is not positive either; the refusal names the N the user gave
    argv = ["extensivity", "--stat", "mb-fact", "--T", "1", "--n-list", n_list]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: N must be an integer >= 1, got {n_list.split(',')[-1]}\n", err


def test_extensivity_n_list_below_one_refused_by_N_before_V(capsys):
    # a 401-digit N below 1 has no float V; N is read first and named
    n_list = "-1" + "0" * 400
    code, out, err = run_cli(["extensivity", "--stat", "mb-nn", "--T", "1", "--n-list", n_list], capsys)
    assert code == 2 and out == ""
    assert err == f"error: N must be an integer >= 1, got {n_list}\n", err


@pytest.mark.parametrize("stat", ["mb-nn", "mb-fact"])
def test_partition_mb_N_past_the_float_range_refused(stat, capsys):
    # N ln z1 and ln N! have no float for a 401-digit N
    argv = ["partition", "--stat", stat, "--levels", "0,1", "-N", "1" + "0" * 400, "--beta", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "canonical ln Z is out of float range" in err


NEGATIVE_ZERO_F = ["partition", "--stat", "be", "--levels", "0,1,2", "-N", "2", "--beta", "1e300"]
ZERO_F = {"json": '"F":0,', "csv": "\nF,0\n", "pretty": "\n  F = 0\n"}


@pytest.mark.parametrize("fmt", sorted(ZERO_F))
def test_partition_negative_zero_F_prints_0(fmt, capsys):
    # F = -kT ln Z = -(1e-300) * 0.0 is a negative zero
    code, out, _ = run_cli(NEGATIVE_ZERO_F + ["--output", fmt], capsys)
    assert code == 0 and "-0" not in out
    assert ZERO_F[fmt] in out


def test_extensivity_cli(capsys):
    code, out, _ = run_cli(
        ["extensivity", "--stat", "mb-nn", "--T", "1", "--per-volume", "1.5",
         "--n-list", "1,2,10", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert all(c["passed"] for c in data["checks"])
    assert all(abs(r["extensivity_defect"]) <= 1e-12 for r in data["rows"])


def test_extensivity_discrete_fd(capsys):
    code, out, _ = run_cli(
        ["extensivity", "--stat", "fd", "--T", "1", "--discrete", "--box1d", "10",
         "--sizes", "1:2,2:4", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert data["rows"][1]["extensivity_defect"] != 0.0


def test_extensivity_fd_overfilled_refused(capsys):
    code, out, err = run_cli(
        ["extensivity", "--stat", "fd", "--T", "1", "--discrete", "--box1d", "2", "--sizes", "3:5"], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# -- determinism, config plumbing, --out ----------------------------------


def test_json_output_byte_identical(capsys):
    args = ["decompose", "--product", "--levels", "a,b,c", "--output", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    args = ["verify-paper", "--output", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_config_file_and_env_through_cli(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "idstat.cfg"
    cfg.write_text("output=json\n")
    args = ["symmetrize", "-l", "a,b", "-p", "S", "--config", str(cfg)]
    _, out, _ = run_cli(args, capsys)
    json.loads(out)  # config file selected JSON
    monkeypatch.setenv("IDSTAT_OUTPUT", "csv")
    _, out, _ = run_cli(args, capsys)
    assert out.splitlines()[0] == "state,exact,float"  # env beats file
    _, out, _ = run_cli(args + ["--output", "pretty"], capsys)
    assert out.startswith("parity S unit vector")  # flag beats env


def test_binary_config_file_refused(tmp_path, capsys):
    # bytes that do not decode are a config file that cannot be read, not a traceback
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(["verify-paper", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read config file {path}") and len(err.splitlines()) == 1


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    args = ["occupations", "--n-levels", "3", "-N", "2", "--stat", "be", "--output", "json"]
    code, out, _ = run_cli(args + ["--out", str(target)], capsys)
    assert code == 0 and out == ""
    _, stdout_text, _ = run_cli(args, capsys)
    assert target.read_text() == stdout_text


def test_seed_changes_nothing_but_runs(capsys):
    code, out, _ = run_cli(["verify-paper", "--seed", "7", "--output", "json"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["ok"] is True


def test_si_mode_thermal_wavelength(capsys):
    code, out, _ = run_cli(
        ["partition", "--stat", "mb-fact", "--continuum", "--V", "1e-3", "--N", "1",
         "--T", "300", "--mass", "6.6464731e-27", "--mode", "si", "--output", "json"],
        capsys,
    )
    data = json.loads(out)
    assert code == 0
    assert 1e-11 < data["thermal_wavelength"] < 1e-10


# -- exit codes ------------------------------------------------------------


def test_exit_2_on_bad_inputs(tmp_path, capsys):
    cases = [
        ["symmetrize", "-l", "a,b", "-p", "Q"],
        ["symmetrize", "-n", "3", "-l", "a,b", "-p", "S"],
        ["symmetrize", "-l", "a,1", "-p", "S"],
        ["occupations", "--n-levels", "4", "-N", "2", "--stat", "boltzmann"],
        ["expect", "--member", "s1", "--levels", "a,b,c", "--particle", "1"],
        ["expect", "--member", "s1", "--levels", "a,b,c", "--particle", "1",
         "--epsilon", "1,2,3", "--box-x"],
        ["expect", "--member", "s1", "--levels", "a,b,c", "--particle", "4",
         "--epsilon", "1,2,3"],
        ["expect", "--member", "s1", "--levels", "a,b,c", "--particle", "1",
         "--epsilon", "1,2"],
        ["expect", "--parity", "A", "--levels", "a,a,b", "--particle", "1",
         "--epsilon", "1,2"],
        *(["expect", "--parity", "S", "--levels", "1,2", "--box-x", "--length", length,
           "--particle", "1"] for length in ("nan", "inf", "0", "-1")),
        ["partition", "--stat", "fd", "--levels", "0,1", "-N", "1", "--beta", "1", "--mu", "0"],
        ["partition", "--stat", "fd", "--levels", "0,1", "-N", "1"],
        ["partition", "--stat", "mb-nn", "--levels", "0,1", "--mu", "0", "--beta", "1"],
        ["decompose", "--product", "--levels", "a,a,b"],
        ["occupations", "--n-levels", "4", "-N", "3", "--stat", "be", "--max-n", "2"],
        ["not-a-command"],
        ["partition", "--stat", "be", "--spectrum-file", str(tmp_path / "missing.csv"), "-N", "2", "--beta", "1"],
        ["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2", "--beta", "1",
         "--out", str(tmp_path / "missing-dir" / "x.txt")],
    ]
    for args in cases:
        code, out, err = run_cli(args, capsys)
        assert code == 2, f"{args} gave {code}"
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, f"{args}: {err!r}"


BOX = ["partition", "--stat", "fd", "--box1d", "4", "-N", "2"]
CONTINUUM = ["partition", "--stat", "mb-nn", "--continuum", "--N", "2"]
PHYSICAL_FLAG_CASES = {
    "--T": [CONTINUUM + ["--V", "1"], BOX,
            ["extensivity", "--stat", "be", "--discrete", "--box1d", "4", "--sizes", "1:2"]],
    "--V": [CONTINUUM + ["--T", "1"]],
    "--beta": [BOX],
    "--mass": [BOX + ["--beta", "1"], CONTINUUM + ["--V", "1", "--T", "1"]],
    "--length": [BOX + ["--beta", "1"]],
    "--per-volume": [["extensivity", "--stat", "mb-nn", "--T", "1", "--n-list", "1,2"]],
    "--mu": [["partition", "--stat", "fd", "--levels", "0,1", "--beta", "1"]],
}


@pytest.mark.parametrize(
    "flag,value",
    [(flag, value) for flag in sorted(PHYSICAL_FLAG_CASES) for value in ("nan", "inf", "-inf", "0", "-1")
     if flag != "--mu" or value in ("nan", "inf", "-inf")],  # mu may be zero or negative
)
def test_exit_2_on_non_positive_or_non_finite_physical_flags(flag, value, capsys):
    for args in PHYSICAL_FLAG_CASES[flag]:
        code, out, err = run_cli(args + [f"{flag}={value}"], capsys)
        assert code == 2 and out == "", f"{args} {flag}={value} gave {code}"
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_box_spectra_refuse_non_positive_volumes(capsys):
    for size in ("0:1", "-1:1"):
        code, out, err = run_cli(
            ["extensivity", "--stat", "be", "--T", "1", "--discrete", f"--sizes={size}"], capsys
        )
        assert code == 2 and out == "" and len(err.splitlines()) == 1, err


EXTREME_FINITE_CASES = {
    # the thermal wavelength underflows to 0, so V / Lambda^3 divides by zero
    "continuum-huge-T": CONTINUUM + ["--V", "1", "--T", "1e308"],
    # the thermal wavelength is about 4e153 and its cube overflows
    "continuum-tiny-mass": CONTINUUM + ["--V", "1", "--T", "1", "--mass", "1e-308"],
    # 2 pi m k T underflows to 0: no ln Z to compute, but the wavelength is printed
    "continuum-no-particles-tiny-mass-T": ["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "0",
                                           "--T", "1e-200", "--mass", "1e-200"],
    # k T underflows to 0 in SI units
    "canonical-si-tiny-T": ["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2",
                            "--T", "1e-320", "--mode", "si"],
    # k beta underflows to 0 in SI units, so kT = 1 / (k beta) is infinite
    "canonical-si-tiny-beta": ["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2",
                               "--beta", "5e-324", "--mode", "si"],
    # 1 / T overflows to an infinite beta, which the grand sum must refuse
    "grand-tiny-T": ["partition", "--stat", "fd", "--levels", "0,1,2", "--mu", "0.5", "--T", "1e-310"],
    # the same beta, for each discrete box of the extensivity table
    "extensivity-tiny-T": ["extensivity", "--stat", "be", "--T", "1e-320", "--discrete", "--n-list", "1,2"],
}


@pytest.mark.parametrize("name", sorted(EXTREME_FINITE_CASES))
def test_exit_2_on_extreme_finite_values(name, capsys):
    code, out, err = run_cli(EXTREME_FINITE_CASES[name], capsys)
    assert code == 2 and out == "", f"{name} gave {code}"
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "non-finite" not in err  # refused as input, not at render time
    if name.endswith("tiny-T"):  # a beta = 1/(kT) past the float range is refused under T's name
        assert re.search(r"beta = 1/\(kT\) is out of float range at T = 1e-3[12]0, k = ", err), err


BAD_SPECTRUM_FILES = {
    "undecodable-bytes": b"\xff" + bytes(range(199)),
    "row-longer-than-header": b"energy,degeneracy\n1,2,3\n",
}


@pytest.mark.parametrize("name", sorted(BAD_SPECTRUM_FILES))
def test_exit_2_on_a_bad_spectrum_file(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(BAD_SPECTRUM_FILES[name])
    code, out, err = run_cli(
        ["partition", "--stat", "be", "--spectrum-file", str(path), "-N", "2", "--beta", "1"], capsys
    )
    assert code == 2 and out == "", f"{name} gave {code}"
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_exit_3_on_bose_divergence(capsys):
    code, _, err = run_cli(
        ["partition", "--stat", "be", "--levels", "0,1", "--mu", "0", "--beta", "1"], capsys
    )
    assert code == 3 and "mu" in err
    code, _, err = run_cli(
        ["partition", "--stat", "be", "--levels", "0,1", "--mu", "800", "--beta", "1"], capsys
    )
    assert code == 3 and "mu" in err  # exp(beta * mu) would overflow


def test_exit_4_on_capacity(capsys):
    code, _, _ = run_cli(["occupations", "--n-levels", "4", "-N", "13", "--stat", "be"], capsys)
    assert code == 4
    code, _, _ = run_cli(["occupations", "--n-levels", "21", "-N", "2", "--stat", "be"], capsys)
    assert code == 4
    code, _, _ = run_cli(
        ["partition", "--stat", "be", "--dimensionless", "30", "-N", "51", "--beta", "1"], capsys
    )
    assert code == 4
    code, _, _ = run_cli(
        ["partition", "--stat", "fd", "--dimensionless", "10001", "-N", "2", "--beta", "1"], capsys
    )
    assert code == 4
    code, _, err = run_cli(["symmetrize", "-l", "a,b,c,d,e,f,g,h,i,j", "-p", "S"], capsys)
    assert code == 4 and "9!" in err


def _refused(code, out, err, exit_code):
    assert code == exit_code and out == "", (code, out, err)
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


A15, A1700, A1800 = (",".join("a" * n) for n in (15, 1700, 1800))
D3000 = ",".join(map(str, range(1, 3001)))


@pytest.mark.parametrize("argv", [
    ["symmetrize", "-l", A15, "-p", "S"],
    ["symmetrize", "-l", A1700, "-p", "S"],
    ["classify", "--parity", "S", "--levels", A1800],
    ["expect", "--parity", "S", "--levels", A1800, "--box-x", "--particle", "1"],
    ["decompose", "--parity", "S", "--levels", A1800],
    ["symmetrize", "-l", D3000, "-p", "S"],
], ids=["15-copies", "1700-copies", "classify-1800", "expect-1800", "decompose-1800", "3000-distinct"])
def test_symmetrize_particle_cap_refused_in_one_short_line(argv, capsys):
    # from about 1700 levels N! has more than 4300 digits: neither it nor
    # the orbit size may reach the message
    code, out, err = run_cli(argv, capsys)
    _refused(code, out, err, 4)
    assert err.startswith("error: symmetrization of ") and err.endswith(" particles exceeds cap 14\n")


def test_orbit_states_past_the_orbit_cap_answer_from_their_levels(capsys):
    # only the terms of an orbit past 9! orderings are refused: symmetrize
    # prints them (exit 4), expect and classify answer without them
    L14 = ",".join("abcdefghijklmn")
    code, out, _ = run_cli(["expect", "--parity", "S", "--levels", "a," + L14[:-2], "--epsilon",
                            ",".join(map(str, range(1, 14))), "--particle", "3"], capsys)
    assert code == 0 and out.endswith(": 46/7 = 6.5714285714285712\n"), out
    code, out, _ = run_cli(["classify", "--parity", "A", "--levels", L14], capsys)
    assert code == 0 and out == f"parity:A state on ({L14}): tag = antisymmetric\n"
    code, out, err = run_cli(["symmetrize", "-l", L14[:19], "-p", "S"], capsys)
    _refused(code, out, err, 4)
    assert err == "error: symmetrization orbit of 3628800 product states exceeds cap 362880 = 9!\n"
    # A on repeated levels is the zero vector however long its orbit
    code, out, _ = run_cli(["symmetrize", "-l", "a," + L14[:19], "-p", "A"], capsys)
    assert code == 0 and out == f"parity A on (a,{L14[:19]}): zero vector (alternating sum cancels)\n"
    code, out, err = run_cli(["decompose", "--parity", "S", "--levels", L14[:19]], capsys)
    _refused(code, out, err, 2)
    assert err == "error: defined for exactly three pairwise distinct levels\n"


def test_partition_box_scale_out_of_float_range_refused(capsys):
    # 8 m L^2 underflows to 0, so h^2 / (8 m L^2) has no float value
    code, out, err = run_cli(
        ["partition", "--stat", "be", "--box1d", "5", "--length", "1e-300", "-N", "1", "--beta", "1"], capsys
    )
    _refused(code, out, err, 2)
    assert "h^2/(8 m L^2)" in err


def test_extensivity_box_scale_out_of_float_range_refused(capsys):
    code, out, err = run_cli(
        ["extensivity", "--stat", "be", "--T", "1", "--discrete", "--sizes", "1e-300:2"], capsys
    )
    _refused(code, out, err, 2)
    assert "h^2/(8 m L^2)" in err


def test_partition_box_scale_rounding_to_zero_still_answers(capsys):
    # h^2 / (8 m L^2) rounds to 0: five levels at zero energy give Z = 5
    code, out, _ = run_cli(
        ["partition", "--stat", "be", "--box1d", "5", "--length", "1e200", "-N", "1", "--beta", "1",
         "--output", "json"],
        capsys,
    )
    assert code == 0 and json.loads(out)["ln_Z"] == math.log(5.0)


def test_partition_grand_fd_ln_xi_out_of_float_range_refused(capsys):
    # beta (mu - e) overflows to inf on both levels
    code, out, err = run_cli(
        ["partition", "--stat", "fd", "--levels", "0,1", "--mu", "1e300", "--beta", "1e10"], capsys
    )
    _refused(code, out, err, 2)
    assert "grand ln Xi is out of float range" in err


def test_occupations_over_the_state_bound_refused_before_enumerating(capsys):
    # C(31, 12) = 141 120 525 BE states: within the N and K caps, refused by count.
    start = time.perf_counter()
    code, out, err = run_cli(["occupations", "--n-levels", "20", "-N", "12", "--stat", "be"], capsys)
    _refused(code, out, err, 4)
    assert "141120525" in err and "184756" in err
    assert time.perf_counter() - start < 1.0


def test_spectrum_file_degeneracy_refused_before_expanding(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("energy,degeneracy\n0,3\n1,1000000000000\n")
    start = time.perf_counter()
    code, out, err = run_cli(
        ["partition", "--stat", "be", "--spectrum-file", str(path), "-N", "2", "--beta", "1"], capsys
    )
    _refused(code, out, err, 4)
    assert "1000000000003 levels exceed" in err
    assert time.perf_counter() - start < 1.0
    path.write_text("energy,degeneracy\n0,5000\n1,5000\n2,1\n")  # passes the cap on the last row
    _refused(*run_cli(["partition", "--stat", "be", "--spectrum-file", str(path), "-N", "2", "--beta", "1"],
                      capsys), 4)
    path.write_text("energy,degeneracy\n0,5000\n1,5000\n")  # exactly at the cap
    assert run_cli(["partition", "--stat", "be", "--spectrum-file", str(path), "-N", "2", "--beta", "1"],
                   capsys)[0] == 0


def test_numeric_level_labels_build_no_table(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["symmetrize", "-l", "1,1000000", "-p", "S"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 3_000_000  # a table of 10^6 labels takes about 70 MB
    assert out == (
        "parity S unit vector on (1,1000000):\n"
        "  |1,1000000>  1/2*sqrt(2)  (0.70710678118654757)\n"
        "  |1000000,1>  1/2*sqrt(2)  (0.70710678118654757)\n"
        "  raw_norm_squared = 1\n"
    )


@pytest.mark.parametrize("argv", [
    ["symmetrize", "-l", "²,1", "-p", "S"],
    ["classify", "--product", "--levels", "²"],
])
def test_level_labels_int_cannot_read_refused(argv, capsys):
    # "²".isdigit() is true, but int("²") raises
    code, out, err = run_cli(argv, capsys)
    _refused(code, out, err, 2)
    assert "'²'" in err


def test_level_label_past_the_digit_limit_refused(capsys):
    # int() and str() of a 5001-digit label raise past CPython's 4300-digit limit, and a
    # label past 308 digits, printed back, would read as an infinite float
    start = time.perf_counter()
    for label in ("7" * 5001, "7" * 309):
        code, out, err = run_cli(["symmetrize", "-l", "1," + label, "-p", "S"], capsys)
        _refused(code, out, err, 2)
        assert "at most 308 digits" in err
    assert time.perf_counter() - start < 1.0
    code, out, _ = run_cli(["symmetrize", "-l", "1," + "7" * 308, "-p", "S", "--output", "json"], capsys)
    assert code == 0 and json.loads(out)["levels"] == ["1", "7" * 308]


EXPECT_12 = ["expect", "--product", "--levels", "1,2"]


@pytest.mark.parametrize("entries", ["1e10000000,2", "1e100000000,2", "1e100000,2", "0e100000,2", "1e-100000,2",
                                     "1/" + "3" * 4301 + ",2", "0." + "0" * 4300 + "1,2", "1e" + "9" * 5000 + ",2",
                                     "1e-2000,1e-2000", "1e-3900,1"])
def test_expect_epsilon_past_the_digit_limit_refused(entries, capsys):
    # Fraction would build 10**exponent or read every digit, taking seconds or minutes,
    # or the exact expectation would need more digits than str() prints
    start = time.perf_counter()
    code, out, err = run_cli(EXPECT_12 + [f"--epsilon={entries}", "--particle", "2"], capsys)
    _refused(code, out, err, 2)
    assert "needs more than 3900 digits" in err and time.perf_counter() - start < 1.0


def test_expect_epsilon_combining_past_the_str_limit_refused(capsys):
    # each entry fits, but 1e308 + 1e-4299 needs 4608 digits: str() raised ValueError
    code, out, err = run_cli(["expect", "--member=s1", "--levels=a,b,c", "--epsilon=1e-4299,1e308,5e-324",
                              "--particle=1"], capsys)
    _refused(code, out, err, 2)
    code, out, err = run_cli(["expect", "--member=s1", "--levels=a,b,c", "--epsilon=1e-3200,1e308,5e-324",
                              "--particle=1", "--output=json"], capsys)
    assert code == 0, err
    data = json.loads(out)
    assert Fraction(data["exact"]) == (Fraction(5) * Fraction("1e-3200") + 5 * Fraction(10**308)
                                       + 2 * Fraction("5e-324")) / 12
    assert data["float"] == float(Fraction(data["exact"]))


@pytest.mark.parametrize("entry", ["1e400", "-1e400", "2e308", "1.8e308"])
def test_expect_epsilon_past_the_float_range_refused(entry, capsys):
    # float() of the exact expectation would raise OverflowError
    code, out, err = run_cli(EXPECT_12 + [f"--epsilon={entry},2", "--particle", "1"], capsys)
    _refused(code, out, err, 2)
    assert f"'{entry}' is beyond the float range" in err


def test_expect_epsilon_edges_that_answer(capsys):
    cases = {"1e-400": 0.0, "1e308": 1e308, "-1.5e3": -1500.0, "1_0": 10.0, "-0": 0.0, ".5": 0.5}
    for entry, want in cases.items():
        code, out, err = run_cli(EXPECT_12 + [f"--epsilon={entry},2", "--particle", "1", "--output", "json"],
                                 capsys)
        assert code == 0, (entry, err)
        data = json.loads(out)
        assert data["float"] == want and Fraction(data["exact"]) == Fraction(entry), entry
    for entry in ("1/0", "nan", "1e", "0x10", "1ex"):
        _refused(*run_cli(EXPECT_12 + [f"--epsilon={entry},2", "--particle", "1"], capsys), 2)


def test_help_exits_zero(capsys):
    assert run_cli(["--help"], capsys)[0] == 0
    assert run_cli(["partition", "--help"], capsys)[0] == 0


READERS = {"--mode": ("partition", "extensivity"), "--seed": ("verify-paper",)}


@pytest.mark.parametrize("option", sorted(READERS))
def test_mode_and_seed_are_options_only_where_read(option, capsys):
    # every other command refuses them as unknown, as plain argv and with the value attached
    value = {"--mode": "si", "--seed": "7"}[option]
    for name in cli.COMMANDS:
        flags = {flag for flags, _ in cli._options(name) for flag in flags}
        assert (option in flags) == (name in READERS[option]), name
        if name in READERS[option]:
            continue
        argv = next(argv for argv in CORPUS.values() if argv[0] == name)
        for extra in ([option, value], [f"{option}={value}"]):
            code, out, err = run_cli([*argv, *extra], capsys)
            assert (code, out) == (2, "") and err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)


# -- the one parse, with argparse as its oracle -----------------------------


class _Oracle(argparse.ArgumentParser):
    """argparse as idstat used it before reading argvs itself: an error
    raises InputError, and a token that starts as a negative number does
    (cli._NEGATIVE) is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(cli._NEGATIVE)  # argparse calls .match: a prefix

    def error(self, message):
        raise InputError(message)


def _argparse_type(convert):
    """An option type for argparse, which shows an ArgumentTypeError's text
    where idstat's types raise InputError."""
    def typed(text):
        try:
            return convert(text)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert if convert is int else typed


def _oracle() -> _Oracle:
    """argparse's parser of an idstat argv, built from the option tables:
    a top-level parser with one subparser per command."""
    parser = _Oracle(prog="idstat", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Oracle)
    for name, text in cli.COMMANDS.items():
        command, group = sub.add_parser(name, help=text, add_help=False), None
        for flags, settings in cli._options(name):
            target = command
            if (flags, settings) in cli._STATE_KIND:
                group = target = group or command.add_mutually_exclusive_group(required=True)
            if "type" in settings:
                settings = dict(settings, type=_argparse_type(settings["type"]))
            target.add_argument(*flags, **settings)
    return parser


def _parsed(parse, argv: list) -> tuple:
    """What parsing `argv` gives: its namespace, its refusal, or the --help
    text (which argparse prints before it exits)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            parsed = parse(list(argv))
    except InputError as exc:
        return "refused", str(exc)
    except SystemExit as exc:
        return "help", exc.code, out.getvalue()
    return ("help", 0, parsed) if isinstance(parsed, str) else ("parsed", vars(parsed))


#: The argvs of the comparison below whose refusal the parse words its own
#: way: it refuses at the first token no option takes, where argparse reads
#: on, then names every such token, or first a missing command.
REWORDED = {
    ("--bogus",): "unrecognized arguments: --bogus",
    (*CORPUS["partition-canonical-fd"], "--seed", "7"): "unrecognized arguments: --seed",
    ("verify-paper", "--mode", "si"): "unrecognized arguments: --mode",
}


def test_one_pass_parses_as_the_top_level_parser(tmp_path):
    argvs = [CORPUS[name] + ["--output", fmt] for name in sorted(CORPUS) for fmt in FORMATS]
    files = _files(tmp_path)
    for command, cases in PROPERTY_CASES.items():  # the property test's draws
        rng, actions = random.Random(f"{PROPERTY_SEED}-{command}"), _actions(command)
        seeds = _seeds(command, actions)
        argvs += [_argv(rng, command, actions, seeds, files) for _ in range(cases)]
    partition = CORPUS["partition-canonical-fd"]
    argvs += [
        [], ["--help"], ["-h"], ["--he"], ["--bogus"], ["nosuch"], ["nosuch", "--help"],
        ["partition", "--help"], ["partition", "--he"], [*partition, "-h"], ["verify-paper", "--help"],
        ["--", *partition], ["--bogus", *partition],
        ["partition", *partition[3:]],  # no --stat
        ["classify", "--levels", "a,b,c"],  # none of the required state options
        ["classify", "--product", "--parity", "S", "--levels", "a,b,c"],
        [*partition, "--bogus"], [*partition, "extra"], [*partition, "--beta"], [*partition, "--output", "xml"],
        # edges: an option given twice, negative numbers (plain and not),
        # attached and abbreviated forms, an option or nothing where a value belongs, empty and
        # blank values, a group member twice and two members, and values type or choices refuse
        [*partition, "-N", "3", "--beta", "2"], [*partition[:7], "--mu", "-0.5", "--beta", "1"],
        [*partition[:5], "-N", "-1", "--beta", "1"], [*partition[:7], "--mu", "-.5", "--beta", "1"],
        [*partition[:7], "--mu", "-1e-05", "--beta", "1"], [*partition[:5], "-N", "-1.5", "--beta", "1"],
        [*partition[:7], "--beta=1"], [*partition[:7], "--bet", "1"], [*partition[:5], "-N2", "--beta", "1"],
        [*partition[:3], "--levels", "--beta", "1", "-N", "2"], [*partition, "--levels"],
        [*partition[:3], "--levels", "", *partition[5:]], [*partition[:3], "--levels", " ", *partition[5:]],
        [*partition, "--out", ""], ["verify-paper", "--seed", " "], ["verify-paper", "--seed", ""], [*partition, "--out", "-"],
        ["classify", "--product", "--product", "--levels", "a,b,c"],
        ["classify", "--product", "--member", "s1", "--levels", "a,b,c"],
        ["classify", "--member", "s9", "--levels", "a,b,c"], ["classify", "-p", "S", "-l", "a,b", "-l", "a,c"],
        ["verify-paper", "--seed", "1.5"], ["verify-paper", "--seed", " 7 "], [*partition, "--beta", "0"],
        # an option only another command reads
        [*partition, "--seed", "7"], ["verify-paper", "--mode", "si"],
        # "=" after a short flag, a short flag's value joined, an ambiguous prefix, a value given
        # to a flag that takes none
        [*partition[:5], "-N=2", "--beta", "1"], ["classify", "--product", "-la,b,c"], [*partition, "--m", "si"],
        [*partition, "--continuum=1"],
        # a value that starts with a negative number, and one that starts with "-" and no number
        *SPACED_NEGATIVE_STARTS, [*partition[:3], "--levels", "-x", *partition[5:]],
    ]
    oracle = _oracle()
    for argv in argvs:
        parsed, expected = _parsed(cli._parse, argv), _parsed(oracle.parse_args, argv)
        if tuple(argv) in REWORDED:
            assert expected[0] == "refused" and parsed == ("refused", REWORDED[tuple(argv)]), (argv, expected)
        else:
            assert parsed == expected, argv


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_is_the_oracles_help(command, monkeypatch, capsys):
    # byte for byte at a fixed width: exit 0, the text on stdout, nothing on stderr
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    _, code, text = _parsed(_oracle().parse_args, argv)
    assert text.startswith(f"usage: idstat {command or ''}".rstrip())
    assert run_cli(argv, capsys) == (code, text, "") and code == 0


# -- repeated in-process calls ----------------------------------------------


def _creep_argvs() -> list:
    """Canonical BE/FD `partition` argvs, one per spectrum source and K in
    2..20; the statistics, energies, N and beta come from a fixed seed."""
    rng = random.Random(2014)
    argvs = []
    for k, source in itertools.product(range(2, 21), ("--levels", "--box1d", "--dimensionless")):
        spectrum = ",".join(f"{rng.uniform(0, 5):.3f}" for _ in range(k)) if source == "--levels" else str(k)
        argvs.append(["partition", "--stat", rng.choice(("be", "fd")), source, spectrum,
                      "-N", str(rng.randint(1, k)), "--beta", f"{rng.uniform(0.1, 3):.3g}", "--output", "json"])
    return argvs


def test_repeated_calls_do_not_grow_the_heap():
    # A call leaves nothing allocated behind it.  A tuple built from a
    # generator is allocated at a guessed length and then resized, so each
    # such build parks one tuple in CPython's per-length free list, which
    # only a full collection empties; with the collector off, so would a
    # parser tree rebuilt per call.
    argvs, passes = _creep_argvs(), 20
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert {main(argv) for argv in argvs} == {0}  # warm-up
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(passes):
                for argv in argvs:
                    main(argv)
            growth = sys.getallocatedblocks() - before
        finally:
            gc.enable()
    assert growth / (passes * len(argvs)) < 0.75


# -- verification ledger ----------------------------------------------------


def test_verify_paper_passes_with_two_noted(capsys):
    code, out, _ = run_cli(["verify-paper", "--output", "json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["summary"]["failed"] == 0
    assert data["summary"]["noted"] == 2
    noted_ids = {c["id"] for c in data["checks"] if c["status"] == "noted"}
    assert noted_ids == {"decomposition_sign", "free_energy_sign"}


def test_verify_paper_negative_control(monkeypatch, capsys):
    # flip one sign in a mixed-basis pattern: the six vectors stop being
    # orthonormal and the suite must notice and fail
    bad = {(0, 1, 2): 2, (0, 2, 1): -1, (1, 0, 2): 2, (2, 0, 1): -1, (1, 2, 0): -1, (2, 1, 0): 1}
    monkeypatch.setitem(symmetry._MIXED_PATTERNS, "s1", bad)
    code, out, _ = run_cli(["verify-paper", "--output", "json"], capsys)
    data = json.loads(out)
    assert code == 1
    assert data["summary"]["failed"] >= 1
    failed_ids = {c["id"] for c in data["checks"] if c["status"] == "fail"}
    assert "basis_orthonormal" in failed_ids


def test_verify_paper_prints_the_tolerance_each_row_applies(capsys):
    tolerance = {row[0]: row[2] for row in verify._ledger(0)}
    code, out, _ = run_cli(["verify-paper", "--output", "json"], capsys)
    checks = json.loads(out)["checks"]
    assert code == 0 and [c["id"] for c in checks] == list(tolerance)
    unnumbered = set()
    for c in checks:
        tol = tolerance[c["id"]]
        assert c["tolerance"] == tol, c["id"]
        if not tol:
            continue
        stated = re.findall(r"\d[\d.]*e[-+]?\d+", c["rhs"])  # a number the rhs text states
        assert stated in ([f"{tol:g}"], []), c
        if not stated:
            unnumbered.add(c["id"])
    assert sum(map(bool, tolerance.values())) == 8
    assert unnumbered == {"extensivity_mb_fact"}


def test_verify_paper_fails_a_row_tightened_past_its_gap(monkeypatch, capsys):
    # the tolerance a row states is the one its check applies and prints
    ledger = verify._ledger
    monkeypatch.setattr(verify, "_ledger", lambda seed: [
        row[:2] + (1e-30,) + row[3:] if row[0] == "canonical_recursion" else row for row in ledger(seed)])
    code, out, _ = run_cli(["verify-paper", "--output", "json"], capsys)
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [(c["id"], c["tolerance"], c["rhs"]) for c in failed] == [
        ("canonical_recursion", 1e-30, "<= 1e-30")]
    code, out, _ = run_cli(["verify-paper"], capsys)
    assert code == 1
    line = next(x for x in out.splitlines() if " canonical_recursion " in x)
    assert line.startswith("FAIL ") and line.endswith("| expected: <= 1e-30")
    assert out.splitlines()[-1] == "summary: 23 passed, 1 failed, 2 noted"


def test_verify_paper_csv_and_pretty(capsys):
    code, out, _ = run_cli(["verify-paper", "--output", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "id,status,claim,lhs,rhs,tolerance"
    code, out, _ = run_cli(["verify-paper"], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("summary: ")
    assert "NOTED" in out

"""Seeded argv property test for the error boundary of `partition`,
`extensivity`, `occupations`, `verify-paper` and the exact-state
subcommands (`symmetrize`, `mixed-basis`, `decompose`, `classify`,
`expect`).

Each case is a golden-corpus argv with a few options set, changed or
dropped, or a draw of every option from scratch.  Options come from the
subcommand's own option table, values from a pool for the option's type
or from an edge pool.  File options draw from paths under the test's
temporary directory: `--out` and `--spectrum-file` everywhere they exist,
`--config` for `occupations` and `verify-paper`.  Half the draws write each
value as its own token after its option, where the value cannot be read as
an option; the others attach every value with "=".  Whatever the input, the
command must answer (exit 0) or refuse (exit 2, 3 or 4) with exactly one
`error:` line and nothing on stdout or in the `--out` file, before render
time; it must never end in a traceback, and no number it prints, to stdout
or to the `--out` file, may be nan, inf or a negative zero.
"""

from __future__ import annotations

import collections
import json
import os
import random
import re
import time

import pytest

from idstat import cli
from idstat.cli import main
from idstat.statmech import Statistics, canonical_ln_Z, spectrum_from_levels
from test_golden import CORPUS

SEED = 20261018
CASES = {"partition": 250, "extensivity": 250, "symmetrize": 120, "mixed-basis": 60,
         "decompose": 200, "classify": 120, "expect": 200, "occupations": 200, "verify-paper": 60}
SLOWEST_CASE_S = 2.0

EDGE_VALUES = (
    "0", "-0", "1e-320", "1e-300", "1e308", "nan", "inf", "-inf",
    str(10**30), str(-(10**30)), "", " ", "é", "λ,μ",
)
#: Plausible values by the option's type; string options by destination.
INTS = ("0", "1", "2", "3", "5", "12", "50", "-1")
NUMBERS = ("1", "0.5", "-2", "1e-300", "1e300", "1e308", "1e10", "5e-324")
WORDS = {
    "stat": ("be", "fd", "mb-nn", "mb-fact", " FD "),
    "levels": ("0,1,2", "0,1", "1e-300,2e-300", "5,5,5", "-1e308,1e308", "0"),
    "sizes": ("1:2,2:4", "1e-300:2", "2:1", "1e308:3", "1:0", "1e-320:1"),
    "n_list": ("1,2,10", "1", "2,100", "10000", "0"),
}
#: Level labels of the exact-state subcommands, drawn in place of the edge
#: pool: there a letter word such as "nan" is a label, echoed as a string.
#: Nine distinct labels are left out: their 9! orderings take seconds.
STATE_LEVELS = (
    "a,b,c", "c,a,b", "a,b", "a", "1,2,3", "3,1,2", "1,3,3", "a,a,b", "b,a,a", "5,5,5",
    "é,λ,μ", "α,β,γ", "²,1", "²", "1,²,3", "a,b,c,d,e,f,g,h,i,j", "1,2,3,4,5,6,7,8,9,10,11",
    "a,a,a,a,a,a,b,b,c", "a,a,a,a,a,a,a,a,a,a,a,a", "1,1,1,1,1,1,1,1,1,1,1,2", "1,2000000",
    "1," + "7" * 5001, "1," + "9" * 309, "0,1,2", "-1,2", "+1,2", "a,1", "", " ", "a,,b",
    # past the particle cap of symmetrization, and (from about 1700 labels)
    # with N! past the 4300-digit int <-> str limit
    ",".join("a" * 15), ",".join("a" * 1700), ",".join(map(str, range(1, 3001))),
)
#: --epsilon entries; a draw joins one to five of them.
EPSILON_ENTRIES = ("1", "2", "3", "1/2", "-5/3", "0.25", "1/0", "1_0", "-0", "nan", "1e400",
                   "1e-400", "1e100000", "1e-4299", "1e308", "-1e308", "", "x", "²")
#: Pools of one command's options by destination, in place of the type pools.
SIZES = ("0", "-1", "1", "2", "3", "20", "21", str(10**20), "2.5", "1e3", "x")
SEEDS = ("0", "1", "7", str(2**64), "-1", "1.5", "x")
COMMAND_POOLS = {
    "occupations": {"n_levels": SIZES, "n_particles": SIZES,
                    "stat": ("be", "fd", "mb-nn", "mb-fact", " FD ", "BE", "boltzmann", "bose-einstein")},
    "verify-paper": {"seed": SEEDS},
}
#: A config file is read only where the command is in FILE_COMMANDS.
SKIPPED = {"--config"}
FILE_COMMANDS = ("occupations", "verify-paper")
#: Options that only some forms of a command read, by the options that make
#: such a form.  An edit sets one in a corpus argv only where it is read, so
#: that the edits still reach the answering paths; a draw from scratch sets
#: it anywhere.
READ_ONLY_WITH = {
    "partition": {"length": {"box1d", "box3d"}, "mass": {"box1d", "box3d", "continuum"}},
    "expect": {"length": {"box_x"}},
}
#: Files by the destination of the option that takes them, each by name:
#: bytes to write, a directory, or a path that does not exist.
FILES = {
    "config": {
        "missing.cfg": None, "dir.cfg": "dir", "binary.cfg": b"\xff\xfe\x00",
        "unknown-key.cfg": b"colour=red\n", "bad-seed.cfg": b"seed=x\n", "negative-seed.cfg": b"seed=-3\n",
        "empty-value.cfg": b"output=\n", "good.cfg": b"# comment\noutput=json\nseed=4\n",
    },
    "spectrum_file": {
        "good.csv": b"energy,degeneracy\n0,1\n0.5,2\n1.5,1\n", "missing.csv": None, "dir.csv": "dir",
        "binary.csv": b"\xff\xfe\x00\x01", "wide-row.csv": b"energy\n0,1\n",
        "huge-degeneracy.csv": b"energy,degeneracy\n1,1000000000000\n",
    },
    # a writable file (made by the command), a directory, a path under a missing directory
    "out": {"out.txt": None, "out-dir": "dir", os.path.join("missing-dir", "out.txt"): None},
}
STATE_COMMANDS = ("symmetrize", "mixed-basis", "decompose", "classify", "expect")


def _skipped(command: str) -> set:
    return SKIPPED - {"--config"} if command in FILE_COMMANDS else SKIPPED


#: What the draw reads of an option, named as argparse names it on an Action.
Option = collections.namedtuple("Option", "option_strings dest required nargs choices type")


def _actions(command: str) -> list:
    """The options of `command` in its table's order, -h/--help and the skipped ones left out."""
    table = cli._flag_table(command)[0]  # flag -> (flags, settings, attribute)
    return [Option(flags, table[flags[0]][2], settings.get("required", False),
                   0 if settings.get("action") else None, settings.get("choices"), settings.get("type"))
            for flags, settings in cli._options(command)
            if settings.get("action") != "help" and not _skipped(command) & set(flags)]


def _files(directory) -> dict:
    """FILES written under `directory`: destination -> paths."""
    paths = {}
    for dest, files in FILES.items():
        paths[dest] = []
        for name, content in files.items():
            path = directory / name
            if content == "dir":
                path.mkdir()
            elif content is not None:
                path.write_bytes(content)
            paths[dest].append(str(path))
    return paths


def _seeds(command: str, actions: list) -> list:
    """The golden corpus's argv for `command`, each as {action: value}."""
    by_flag = {flag: a for a in actions for flag in a.option_strings}
    seeds = []
    for argv in CORPUS.values():
        if argv[0] != command or _skipped(command) & set(argv):
            continue
        tokens = iter(argv[1:])
        seeds.append({by_flag[t]: None if by_flag[t].nargs == 0 else next(tokens) for t in tokens})
    return seeds


def _pool(action) -> tuple:
    if action.choices:
        return tuple(action.choices)
    if action.type is int:
        return INTS
    if action.type is not None:  # the finite and positive number types
        return NUMBERS
    return WORDS.get(action.dest, ())


def _value(rng: random.Random, action, command: str, files: dict):
    if action.nargs == 0:
        return None
    if command in STATE_COMMANDS and action.dest == "levels":
        return rng.choice(STATE_LEVELS)
    if action.dest == "epsilon":
        return ",".join(rng.choice(EPSILON_ENTRIES) for _ in range(rng.randint(1, 5)))
    if action.dest in files:
        return rng.choice(files[action.dest])
    pool = COMMAND_POOLS.get(command, {}).get(action.dest) or _pool(action)
    return rng.choice(EDGE_VALUES if not pool or rng.random() < 0.4 else pool)


def _argv(rng: random.Random, command: str, actions: list, seeds: list, files: dict) -> list:
    """A corpus argv with one to three options set, changed or dropped, or
    now and then a draw of every option from scratch; spaced or attached."""
    if rng.random() < 0.2:
        options = {a: _value(rng, a, command, files) for a in actions
                   if rng.random() < (0.95 if a.required else 0.3)}
    else:
        options = dict(rng.choice(seeds))
        for _ in range(rng.randint(1, 3)):
            action = rng.choice(actions)
            readers = READ_ONLY_WITH.get(command, {}).get(action.dest)
            if action in options and rng.random() < 0.3:
                del options[action]
            elif readers is None or readers & {a.dest for a in options}:
                options[action] = _value(rng, action, command, files)
    spaced = rng.random() < 0.5
    argv = [command]
    for action, value in options.items():
        flag = rng.choice(action.option_strings)
        if value is None:
            argv.append(flag)
        elif spaced and (value[:1] != "-" or re.match(r"-\.?\d", value)):  # a value, not an option
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    return argv


def _out_target(argv: list) -> str | None:
    """The --out path of an argv, spaced or attached."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--out":
            return value
    return next((t.split("=", 1)[1] for t in argv if t.startswith("--out=")), None)


def _bad_float_tokens(text: str) -> list:
    bad = []
    for token in re.split(r"[\s,:;=()\[\]{}\"]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        if value != value or value in (float("inf"), float("-inf")) or (value == 0 and token.startswith("-")):
            bad.append(token)
    return bad


@pytest.mark.parametrize("command", list(CASES))
def test_every_argv_answers_or_refuses_with_one_line(command, capsys, tmp_path):
    rng = random.Random(f"{SEED}-{command}")
    actions = _actions(command)
    seeds = _seeds(command, actions)
    files = _files(tmp_path)
    answered = 0
    for _ in range(CASES[command]):
        argv = _argv(rng, command, actions, seeds, files)
        target = _out_target(argv)
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        written = target is not None and os.path.isfile(target)
        if code:
            assert out == "" and not written, (argv, out)
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
            assert "cannot render" not in err, (argv, err)  # a library result was not finite
        else:
            answered += 1
            if target is not None:  # the answer went to the file, which the next case must not find
                assert out == "" and written, (argv, out)
                with open(target) as fh:
                    out = fh.read()
                os.remove(target)
            assert out and not _bad_float_tokens(out), (argv, out)
        assert elapsed < SLOWEST_CASE_S, (argv, elapsed)
    assert answered >= CASES[command] // 10  # the draw reaches the answering paths too


@pytest.mark.parametrize("stat", ["be", "fd"])
def test_drawn_good_spectrum_file_answers(stat, capsys, tmp_path):
    # The seeded draw reaches good.csv rarely and with options that refuse,
    # so the file is read here on its own: energies 0, 0.5 (twice) and 1.5.
    (good,) = [p for p in _files(tmp_path)["spectrum_file"] if p.endswith("good.csv")]
    code = main(["partition", "--stat", stat, "--spectrum-file", good, "-N", "2", "--beta", "1",
                 "--output", "json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == "", err
    want = canonical_ln_Z(spectrum_from_levels([0, 0.5, 0.5, 1.5]), 2, 1.0, Statistics(stat))
    assert json.loads(out)["ln_Z"] == want

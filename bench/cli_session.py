"""`cli-session`: one fresh `idstat` process per task, one at a time.

The deck holds every README example as written (pretty output), the
`verify-paper` ledger in all three output formats, three large JSON outputs,
and a seeded share of invalid or edge inputs, each with the exit code it
requires.  Five edge inputs known to escape the CLI error boundary as a
traceback are always in the deck, with seeded parameters; the seed picks seven
more from the other templates.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import refs
from tasks import TRACEBACK, CliResult, Task, Verdict, cli_digest, close, expect_json, expect_refusal

ENTRY = "import sys\nfrom idstat.cli import main\nsys.exit(main())"  # the console script
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


class Session:
    """Spawns the idstat processes; when `tracer` is set, each child runs
    traced and its spans are merged under the current task."""

    def __init__(self, root: str, out_dir: str):
        self.root, self.out_dir = root, out_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tracer = None
        self.task = None
        self.spawn_s: list[float] = []

    def invoke(self, argv) -> CliResult:
        if self.tracer is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            export = os.path.join(self.out_dir, "child-trace.json")
            cmd = [sys.executable, CHILD, export, *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=170)
        wall = time.perf_counter() - start
        if self.tracer is not None:
            with open(export) as fh:
                exported = json.load(fh)
            os.remove(export)
            self.tracer.merge(exported, self.task)
            self.spawn_s.append(wall - exported["main_s"])
        return CliResult(proc.returncode, proc.stdout, proc.stderr,
                         "Traceback (most recent call last)" in proc.stderr)


# -- parsing pretty output ------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)(?:\*sqrt\((\d+)\))?")


def parse_radical(text: str) -> dict:
    """'1/6*sqrt(6) - 1/2' -> {6: 1/6, 1: -1/2}; '0' -> {}."""
    out: dict = {}
    for sign, q, r in _TERM.findall(text.replace(" ", "")):
        value = Fraction(q) * (-1 if sign == "-" else 1)
        if value:
            out[int(r or 1)] = out.get(int(r or 1), Fraction(0)) + value
    return out


def _value(text: str, key: str) -> float | None:
    m = re.search(rf"^\s*{re.escape(key)} = (\S+)\s*$", text, re.M)
    return float(m.group(1)) if m else None


def _success(res: CliResult):
    if res.traceback:
        return Verdict(False, "traceback: " + res.err.strip().splitlines()[-1], defects=TRACEBACK)
    if res.rc != 0 or res.err:
        return Verdict(False, f"exit {res.rc}: {res.err.strip()}")
    return None


def _pretty(check):
    def wrapped(res: CliResult) -> Verdict:
        return _success(res) or check(res.out)
    return wrapped


def _json(check):
    def wrapped(res: CliResult) -> Verdict:
        data = expect_json(res)
        return data if isinstance(data, Verdict) else check(data)
    return wrapped


def _ok(cond: bool, why: str) -> Verdict:
    return Verdict(True) if cond else Verdict(False, why)


# -- README examples ------------------------------------------------------------


def _check_sym2(out):
    amps = re.findall(r"\|([ab]),([ab])>\s+(\S+)", out)
    return _ok(sorted((a, b) for a, b, _ in amps) == [("a", "b"), ("b", "a")]
               and all(refs.square(list(parse_radical(x).items())) == Fraction(1, 2) for *_, x in amps),
               "terms are not |a,b> and |b,a> with amplitude 1/sqrt(2)")


def _check_basis_json(data):
    vecs = [{tuple(t["state"]): parse_radical(t["exact"]) for t in v["terms"]} for v in data["vectors"]]
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            g = refs.radical_sum(refs.radical_product(a, v[s]) for s, a in u.items() if s in v)
            if g != ({1: Fraction(1)} if i == j else {}):
                return Verdict(False, f"Gram entry ({i},{j}) = {g}")
    return _ok(len(vecs) == 6, "not six vectors")


def _check_decompose(out):
    want = {"sym": Fraction(1, 6), "antisym": Fraction(1, 6), "s1": Fraction(1, 3),
            "s2": Fraction(0), "s1p": Fraction(1, 3), "s2p": Fraction(0)}
    got = dict(re.findall(r"^\s+(sym|antisym|s1|s2|s1p|s2p)\s+(\S+)", out, re.M))
    squares = {k: refs.radical_sum([refs.radical_product(parse_radical(v), parse_radical(v))]) for k, v in got.items()}
    return _ok(squares == {k: ({1: w} if w else {}) for k, w in want.items()}
               and "residual_norm_squared = 0" in out and "sum_of_squares = 1" in out,
               f"coefficients {got}")


README = [
    (["symmetrize", "-n", "2", "-l", "a,b", "-p", "S"], _pretty(_check_sym2)),
    (["symmetrize", "-l", "a,a,b", "-p", "A"], _pretty(lambda out: _ok("zero vector" in out, "no zero-vector flag"))),
    (["mixed-basis", "--full", "--output", "json"], _json(_check_basis_json)),
    (["decompose", "--product", "--levels", "a,b,c"], _pretty(_check_decompose)),
    (["classify", "--member", "s2p", "--levels", "a,b,c"],
     _pretty(lambda out: _ok("tag = mixed, pair = 2, member = 2" in out, out.strip()))),
    (["expect", "--member", "s1", "--levels", "a,b,c", "--epsilon", "1,2,3", "--particle", "1"],
     _pretty(lambda out: _ok(out.split(": ")[-1].split(" = ")[0] == "7/4", out.strip()))),
    (["expect", "--parity", "S", "--levels", "1,2", "--box-x", "--length", "1", "--particle", "1"],
     _pretty(lambda out: _ok(close(float(out.split(": ")[-1]), 0.5, 1e-10), out.strip()))),
    (["occupations", "--n-levels", "4", "-N", "2", "--stat", "fd"], _pretty(
        lambda out: _ok(f": {math.comb(4, 2)} (closed form {math.comb(4, 2)})" in out
                        and sorted(l.split() for l in out.splitlines()[1:]) == sorted(
                            [["1" if i in c else "0" for i in range(4)]
                             for c in itertools.combinations(range(4), 2)]), "occupation rows"))),
    (["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2", "--beta", "1"], _pretty(
        lambda out: _ok(close(_value(out, "ln_Z"), refs.canonical_ln_Z([0.0, 1.0, 2.0], 2, 1.0, "fd"), 0, 1e-12)
                        and close(_value(out, "Z"), math.exp(refs.canonical_ln_Z([0.0, 1.0, 2.0], 2, 1.0, "fd")), 1e-12),
                        out.strip()))),
    (["partition", "--stat", "be", "--levels", "0", "--mu", "-0.6931471805599453", "--beta", "1"], _pretty(
        lambda out: _ok(close(_value(out, "ln_Xi"), refs.grand_ln_Xi([0.0], 1.0, -0.6931471805599453, "be"), 1e-12),
                        out.strip()))),
    (["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "2", "--T", "1"], _pretty(
        lambda out: _ok(close(_value(out, "ln_Z"), refs.mb_continuum_ln_Z(1.0, 1.0, 2, "mb-nn"), 1e-12)
                        and close(_value(out, "thermal_wavelength"), 1 / math.sqrt(2 * math.pi), 1e-14),
                        out.strip()))),
    (["extensivity", "--stat", "mb-nn", "--T", "1", "--n-list", "1,2,10,100,10000"], _pretty(
        lambda out: _check_extensivity_table(out))),
    (["verify-paper"], _pretty(
        lambda out: _ok(re.search(r"^summary: [1-9]\d* passed, 0 failed, 2 noted$", out, re.M) is not None
                        and not re.search(r"^FAIL", out, re.M), out.strip().splitlines()[-1]))),
]


def _check_extensivity_table(out):
    rows = [l.split() for l in out.splitlines() if re.match(r"^\s+\d", l)]
    if [int(r[1]) for r in rows] != [1, 2, 10, 100, 10000]:
        return Verdict(False, "table rows")
    for v, n, ln_z, f, _, defect in rows:
        ln_ref = refs.mb_continuum_ln_Z(1.0, float(v), int(n), "mb-nn")
        if not close(float(ln_z), ln_ref, 1e-12) or abs(float(defect)) > 1e-12 * abs(float(f)):
            return Verdict(False, f"N = {n}: ln Z {ln_z}, reference {ln_ref}, defect {defect}")
    return _ok(out.count("[pass]") == 5 and "[FAIL]" not in out, "extensivity checks")


# -- large outputs --------------------------------------------------------------


def _check_occupations_json(k, n):
    def check(data):
        rows = [tuple(r) for r in data["states"]]
        want = math.comb(k + n - 1, n)
        return _ok(data["count"] == data["closed_form"] == len(set(rows)) == len(rows) == want
                   and all(len(r) == k and sum(r) == n and min(r) >= 0 for r in rows),
                   f"{len(rows)} states, expected {want}")
    return _json(check)


def _check_symmetrize_json(labels):
    def check(data):
        n = len(labels)
        states = [tuple(t["state"]) for t in data["terms"]]
        if set(states) != set(itertools.permutations(labels)) or len(states) != math.factorial(n):
            return Verdict(False, "support is not every ordering")
        want = Fraction(1, math.factorial(n))
        for t in data["terms"]:
            if refs.square(list(parse_radical(t["exact"]).items())) != want or t["exact"].startswith("-"):
                return Verdict(False, f"amplitude {t['exact']}")
        return _ok(data["norm_squared"]["exact"] == "1", "norm")
    return _json(check)


def _verify_ledger(fmt):
    def check(res: CliResult) -> Verdict:
        failed = _success(res)
        if failed:
            return failed
        if fmt == "json":
            summary = json.loads(res.out)["summary"]
            return _ok(summary["ok"] and summary["failed"] == 0 and summary["noted"] == 2
                       and summary["passed"] > 0, f"summary {summary}")
        statuses = [row[1] for row in list(csv.reader(io.StringIO(res.out)))[1:] if row]
        return _ok("fail" not in statuses and statuses.count("noted") == 2 and "pass" in statuses,
                   "ledger statuses")
    return check


# -- invalid and edge inputs ------------------------------------------------------


def _refusal(codes):
    return lambda res: expect_refusal(res, codes)


def _known_edges(rng, out_rel):
    tag = rng.randrange(10**6)
    mu = round(rng.uniform(750.0, 2000.0), 3)
    gap = round(rng.uniform(0.001, 0.5), 4)
    levels = [0.0, gap]
    k = rng.randint(2, 6)
    return [
        (["partition", "--stat", rng.choice(["be", "fd"]), "--spectrum-file", f"{out_rel}/missing-{tag}.csv",
          "-N", "2", "--beta", "1"], _refusal({2})),
        (["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2", "--beta", repr(round(rng.uniform(0.1, 5), 3)),
          "--out", f"{out_rel}/missing-dir-{tag}/result.txt"], _refusal({2})),
        (["partition", "--stat", "fd", "--levels", f"0,{gap!r}", "--mu", repr(mu), "--beta", "1", "--output", "json"],
         _json(lambda d: _ok(close(d["ln_Xi"], refs.grand_ln_Xi(levels, 1.0, mu, "fd"), 1e-12), f"ln Xi {d['ln_Xi']}"))),
        (["partition", "--stat", "mb-nn", "--continuum", "--V", repr(round(rng.uniform(0.5, 10), 3)),
          "--N", str(rng.randint(1, 100)), "--T", "inf"], _refusal({2})),
        (["extensivity", "--stat", "fd", "--T", repr(round(rng.uniform(0.5, 5), 3)), "--discrete", "--box1d", str(k),
          "--sizes", f"{round(rng.uniform(1, 5), 2)!r}:{k + rng.randint(1, 4)}"], _refusal({2, 4})),
    ]


def _other_edges(rng):
    e0 = round(rng.uniform(0.0, 3.0), 3)
    n_labels = rng.randint(11, 14)
    return [
        (["partition", "--stat", rng.choice(["bose", "fermi", "mb"]), "--levels", "0,1", "-N", "1", "--beta", "1"],
         _refusal({2})),
        (["symmetrize", "-l", rng.choice(["a,1", "b,2,c", "1,a,a"]), "-p", "S"], _refusal({2})),
        (["symmetrize", "-l", "a,b", "-p", rng.choice(["X", "sym", "B"])], _refusal({2})),
        (["partition", "--stat", rng.choice(["be", "fd"]), "--levels", "0,1", "-N", "1"], _refusal({2})),
        (["symmetrize", "-n", str(rng.randint(3, 6)), "-l", "a,b", "-p", "S"], _refusal({2})),
        (["partition", "--stat", "be", "--levels", f"{e0!r},{e0 + 1.0!r}",
          "--mu", repr(round(e0 + rng.uniform(0.0, 2.0), 3)), "--beta", "1"], _refusal({3})),
        (["partition", "--stat", "be", "--dimensionless", str(rng.randint(21, 100)), "-N", str(rng.randint(51, 80)),
          "--beta", "1"], _refusal({4})),
        (["occupations", "--n-levels", str(rng.randint(21, 30)), "-N", "2", "--stat", "be"], _refusal({4})),
        (["symmetrize", "-l", ",".join("abcdefghijklmn"[:n_labels]), "-p", "S"], _refusal({4})),
        (["partition", "--stat", "fd", "--dimensionless", str(rng.randint(10_001, 20_000)), "-N", "2", "--beta", "1"],
         _refusal({4})),
        (["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2", "--beta", "nan"], _refusal({2})),
    ]


def generate(seed: int, session: Session) -> list[Task]:
    rng = random.Random(f"cli-session:{seed}")
    out_rel = os.path.relpath(session.out_dir, session.root)
    labels = "abcdefg"
    deck = [(argv, check, frozenset(), "readme") for argv, check in README]
    deck.append((["occupations", "--n-levels", "12", "-N", "6", "--stat", "be", "--output", "json"],
                 _check_occupations_json(12, 6), frozenset(), "large"))
    deck.append((["symmetrize", "-l", ",".join(labels), "-p", "S", "--output", "json"],
                 _check_symmetrize_json(tuple(labels)), frozenset(), "large"))
    # More commands that cost about as much as verify-paper, so the 90th
    # percentile falls inside one group of similar tasks.
    k, n = rng.choice([(9, 7), (8, 8), (13, 5)])  # 6188 to 6435 states
    deck.append((["occupations", "--n-levels", str(k), "-N", str(n), "--stat", "be", "--output", "json"],
                 _check_occupations_json(k, n), frozenset(), "large"))
    for fmt in ("json", "csv"):
        deck.append((["verify-paper", "--output", fmt, "--seed", str(rng.randrange(1000))],
                     _verify_ledger(fmt), frozenset(), "ledger"))
    deck += [(argv, check, frozenset(TRACEBACK), "edge") for argv, check in _known_edges(rng, out_rel)]
    deck += [(argv, check, frozenset(), "edge") for argv, check in rng.sample(_other_edges(rng), 7)]
    tasks = [
        Task(name="idstat " + " ".join(argv), run=lambda argv=argv: session.invoke(argv), check=check,
             digest=cli_digest, known=known, props={"kind": kind})
        for argv, check, known, kind in deck
    ]
    rng.shuffle(tasks)
    return tasks


def properties(tasks) -> dict:
    kinds = [t.props["kind"] for t in tasks]
    return {
        "tasks_per_pass": len(tasks),
        "invalid_or_edge_share": kinds.count("edge") / len(tasks),
        "readme_examples": kinds.count("readme"),
        "large_outputs": kinds.count("large"),
        "ledgers": kinds.count("ledger") + 1,
        "known_defect_share": sum(bool(t.known) for t in tasks) / len(tasks),
    }

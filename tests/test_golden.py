"""Golden outputs: the exact stdout bytes of a fixed corpus of commands in
every output format, and stdout equal to the `--out` file.

Each case writes `golden/<format>/<name>`.  After a deliberate output
change, rewrite the files from the current code with

    PYTHONPATH=src python tests/test_golden.py

and list the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

from idstat.cli import HANDLERS, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FORMATS = ("pretty", "json", "csv")

CORPUS = {
    # the README examples
    "symmetrize-ab-S": ["symmetrize", "-n", "2", "-l", "a,b", "-p", "S"],
    "symmetrize-aab-A": ["symmetrize", "-l", "a,a,b", "-p", "A"],
    "mixed-basis-full": ["mixed-basis", "--full"],
    "decompose-product": ["decompose", "--product", "--levels", "a,b,c"],
    "classify-s2p": ["classify", "--member", "s2p", "--levels", "a,b,c"],
    "expect-s1-epsilon": ["expect", "--member", "s1", "--levels", "a,b,c", "--epsilon", "1,2,3", "--particle", "1"],
    "expect-S-box-x": ["expect", "--parity", "S", "--levels", "1,2", "--box-x", "--length", "1", "--particle", "1"],
    "occupations-fd": ["occupations", "--n-levels", "4", "-N", "2", "--stat", "fd"],
    "partition-canonical-fd": ["partition", "--stat", "fd", "--levels", "0,1,2", "-N", "2", "--beta", "1"],
    "partition-grand-be": ["partition", "--stat", "be", "--levels", "0", "--mu", "-0.6931471805599453", "--beta", "1"],
    "partition-continuum-mb-nn": ["partition", "--stat", "mb-nn", "--continuum", "--V", "1", "--N", "2", "--T", "1"],
    "extensivity-mb-nn": ["extensivity", "--stat", "mb-nn", "--T", "1", "--n-list", "1,2,10,100,10000"],
    "verify-paper": ["verify-paper"],
    "verify-paper-seed-7": ["verify-paper", "--seed", "7"],
    # exact states
    "symmetrize-abc-A": ["symmetrize", "-l", "a,b,c", "-p", "A"],
    "symmetrize-abcd-A": ["symmetrize", "-l", "b,a,d,c", "-p", "A"],
    "symmetrize-aab-S": ["symmetrize", "-l", "a,a,b", "-p", "S"],
    "symmetrize-numeric-S": ["symmetrize", "-l", "1,3,3", "-p", "s"],
    "mixed-basis-default": ["mixed-basis"],
    "mixed-basis-cab": ["mixed-basis", "--levels", "c,a,b"],
    "mixed-basis-full-cab": ["mixed-basis", "--full", "--levels", "c,a,b"],
    "decompose-A": ["decompose", "--parity", "A", "--levels", "a,b,c"],
    "decompose-s1p": ["decompose", "--member", "s1p", "--levels", "a,b,c"],
    "decompose-s2-bca": ["decompose", "--member", "s2", "--levels", "b,c,a"],
    "classify-product": ["classify", "--product", "--levels", "a,b,c"],
    "classify-S": ["classify", "--parity", "S", "--levels", "a,b"],
    "classify-A": ["classify", "--parity", "A", "--levels", "a,b,c"],
    "expect-A-epsilon": ["expect", "--parity", "A", "--levels", "a,b,c", "--epsilon", "1/2,2,3", "--particle", "3"],
    "expect-product-box-x": ["expect", "--product", "--levels", "1,3", "--box-x", "--length", "2", "--particle", "2"],
    "occupations-be": ["occupations", "--n-levels", "3", "-N", "3", "--stat", "be"],
    # partition: every kind, spectrum source and null case
    "partition-canonical-be-T": ["partition", "--stat", "be", "--dimensionless", "5", "-N", "3", "--T", "2"],
    "partition-canonical-mb-nn": ["partition", "--stat", "mb-nn", "--levels", "0,1", "-N", "2", "--beta", "1"],
    "partition-canonical-mb-fact-box1d": ["partition", "--stat", "mb-fact", "--box1d", "6", "-N", "3",
                                          "--beta", "0.5", "--length", "2", "--mass", "0.5"],
    "partition-canonical-fd-box3d": ["partition", "--stat", "fd", "--box3d", "10", "-N", "4", "--beta", "1"],
    "partition-canonical-fd-overfilled": ["partition", "--stat", "fd", "--levels", "0,1", "-N", "3", "--beta", "1"],
    "partition-canonical-be-high-ground": ["partition", "--stat", "be", "--levels", "1000,1001,1002", "-N", "2",
                                           "--beta", "1"],
    "partition-canonical-spectrum-file": ["partition", "--stat", "be", "--spectrum-file",
                                          os.path.join(GOLDEN, "spectrum.csv"), "-N", "2", "--beta", "1"],
    "partition-canonical-si": ["partition", "--stat", "be", "--box1d", "5", "-N", "2", "--T", "1000",
                               "--mass", "1e-30", "--length", "1e-9", "--mode", "si"],
    "partition-grand-fd": ["partition", "--stat", "fd", "--levels", "0,1,2", "--mu", "0.5", "--beta", "2"],
    "partition-grand-fd-no-Xi": ["partition", "--stat", "fd", "--levels", "0,0.001", "--mu", "800", "--beta", "1"],
    # cold spectra whose partition sums stop at their quiet reach: each file
    # was written by the kernel that summed every level, so the cut keeps every bit
    "partition-canonical-be-box1d-cold": ["partition", "--stat", "be", "--box1d", "9056", "-N", "50", "--beta", "4.2"],
    "partition-canonical-fd-box1d-cold": ["partition", "--stat", "fd", "--box1d", "9056", "-N", "50", "--beta", "4.2"],
    "partition-canonical-be-box3d-cold": ["partition", "--stat", "be", "--box3d", "10000", "-N", "50", "--beta", "2"],
    "partition-canonical-fd-box3d-cold": ["partition", "--stat", "fd", "--box3d", "10000", "-N", "50", "--beta", "2"],
    "partition-grand-be-box3d-cold": ["partition", "--stat", "be", "--box3d", "10000", "--mu", "0", "--beta", "5"],
    "partition-grand-fd-box3d-cold": ["partition", "--stat", "fd", "--box3d", "10000", "--mu", "5", "--beta", "5"],
    # degenerate tops and hot grand sums: each file was written by the kernel
    # that evaluated every multiplier of every row, and by the per-level grand loop
    "partition-canonical-fd-box3d-hot": ["partition", "--stat", "fd", "--box3d", "10000", "-N", "50",
                                         "--beta", "0.001"],
    "partition-canonical-fd-spectrum-file": ["partition", "--stat", "fd", "--spectrum-file",
                                             os.path.join(GOLDEN, "spectrum.csv"), "-N", "4", "--beta", "0.5"],
    "partition-grand-be-box3d-hot": ["partition", "--stat", "be", "--box3d", "10000", "--mu", "0", "--beta", "0.001"],
    "partition-grand-fd-box3d-hot": ["partition", "--stat", "fd", "--box3d", "10000", "--mu", "5", "--beta", "0.001"],
    "partition-continuum-si": ["partition", "--stat", "mb-fact", "--continuum", "--V", "1e-3", "--N", "1",
                               "--T", "300", "--mass", "6.6464731e-27", "--mode", "si"],
    "extensivity-mb-fact": ["extensivity", "--stat", "mb-fact", "--T", "2", "--sizes", "1:1,2:2,5:5"],
    "extensivity-discrete-fd": ["extensivity", "--stat", "fd", "--T", "1", "--discrete", "--box1d", "10",
                                "--sizes", "1:2,2:4"],
    "extensivity-discrete-be": ["extensivity", "--stat", "be", "--T", "1", "--discrete", "--n-list", "1,2",
                                "--per-volume", "2"],
}


#: One command per subcommand, for the fresh-process check.
FRESH = ("symmetrize-ab-S", "mixed-basis-full", "decompose-product", "classify-s2p", "expect-s1-epsilon",
         "occupations-fd", "partition-canonical-fd", "extensivity-mb-nn", "verify-paper")
ENTRY = "import sys\nfrom idstat.cli import main\nsys.exit(main())"  # the console script


def _stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN, fmt, name)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stdout_matches_golden(name, fmt):
    code, out = _stdout(CORPUS[name] + ["--output", fmt])
    assert code == 0
    with open(_path(name, fmt), newline="") as fh:
        assert out == fh.read()


def test_fresh_commands_cover_every_subcommand():
    assert sorted(CORPUS[name][0] for name in FRESH) == sorted(HANDLERS)


@pytest.mark.parametrize("name", FRESH)
def test_fresh_process_stdout_matches_golden(name, fresh_python):
    # A new interpreter has loaded only what the handler imports, which the
    # in-process test cannot show once other tests have loaded every module.
    proc = fresh_python(ENTRY, *CORPUS[name], "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, b"")
    with open(_path(name, "json"), "rb") as fh:
        assert proc.stdout == fh.read()


@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_equals_stdout(fmt, tmp_path):
    for name, argv in CORPUS.items():
        target = tmp_path / f"{name}.{fmt}"
        code, out = _stdout(argv + ["--output", fmt, "--out", str(target)])
        assert code == 0 and out == ""
        with open(target, newline="") as fh:
            assert fh.read() == _stdout(argv + ["--output", fmt])[1], name


def test_one_parser_serves_every_call():
    # The corpus twice, in reverse order, with --help and two refusals in
    # between: the parse carries nothing from one call to the next.
    cases = [(name, fmt) for fmt in FORMATS for name in sorted(CORPUS)][::-1]
    for _ in range(2):
        for name, fmt in cases:
            code, out = _stdout(CORPUS[name] + ["--output", fmt])
            with open(_path(name, fmt), newline="") as fh:
                assert (code, out) == (0, fh.read()), (name, fmt)
        code, out = _stdout(["--help"])
        assert code == 0 and out.startswith("usage: idstat")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            for argv in (["partition", "--stat", "be", "--levels", "0,1", "-N", "1", "--beta", "-1"],
                         ["classify", "--levels", "a,b,c"]):
                assert _stdout(argv) == (2, "")
        assert err.getvalue().count("error: ") == 2


if __name__ == "__main__":
    for fmt in FORMATS:
        os.makedirs(os.path.join(GOLDEN, fmt), exist_ok=True)
        for name, argv in CORPUS.items():
            code, out = _stdout(argv + ["--output", fmt])
            if code != 0:
                sys.exit(f"{name}: exit {code}")
            with open(_path(name, fmt), "w", newline="") as fh:
                fh.write(out)

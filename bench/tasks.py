"""Task model shared by the workloads.

A task is one user action: its `run` is the timed part and calls idstat
only; `check` compares the answer with a reference the benchmark computes
itself and runs outside every timed region.  `known` names the documented
defect classes an input is predicted to fall in (see KNOWN_DEFECTS), and a
failing Verdict names the class its reason belongs to in `defects`.  A failure
is excused only when every class its reason names is one the task is in: it
still counts in `failed` and the fail rate, and is reported by name, but it
does not make the run incorrect.  Any other failure does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from typing import Callable

KNOWN_DEFECTS = {
    "Z-underflow": "canonical Z summed without the ground-level shift underflows "
    "(reference ln Z < -700 or beta*N*e0 > 700) and the CLI prints Z = 0 with no ln Z",
    "fd-recursion": "Fermi-Dirac Z past the enumeration caps (N > 12 or K > 20) goes "
    "to the sign-alternating recursion, which cancels catastrophically",
    "error-boundary": "an invalid or edge input escapes the CLI error boundary as a "
    "traceback (missing file, overflow, infinite temperature, overfilled levels)",
    "box-hermitian": "box_position_operator computes entries (m, n) and (n, m) with "
    "different float rounding for most box lengths, so its own Hermitian check "
    "refuses them",
    "classify-order": "classify_symmetry decomposes an N = 3 vector in the basis built "
    "on its sorted levels, so a mixed member built on levels whose largest is not "
    "last is tagged 'none'",
}
TRACEBACK = ("error-boundary",)

LN_Z_TOL = 1e-9  # absolute on ln Z, i.e. relative on Z


@dataclass
class Verdict:
    ok: bool
    why: str = ""
    ln_z_err: float | None = None
    defects: tuple = ()  # known classes the failure reason belongs to; () if none


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    digest: Callable[[object], str] = None
    known: frozenset = frozenset()
    props: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    err: str
    traceback: bool


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> CliResult:
    """`idstat.cli.main(argv)` in this process, output captured; an
    exception escaping main is what a user would see as a traceback."""
    from idstat import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a traceback is a measured outcome
        return CliResult(1, out.getvalue(), err.getvalue() + traceback.format_exc(), True)
    return CliResult(rc, out.getvalue(), err.getvalue(), False)


def cli_digest(res) -> str:
    """Normal form of one or more CLI results: exit code, stdout and the last
    stderr line (traceback frames differ when tracing wrappers are installed)."""
    results = res if isinstance(res, list) else [res]
    return sha(repr([(r.rc, r.out, (r.err.strip().splitlines() or [""])[-1]) for r in results]))


def expect_json(res: CliResult):
    """Parsed stdout of a successful JSON-mode invocation, or a Verdict."""
    if res.traceback:
        return Verdict(False, "traceback: " + res.err.strip().splitlines()[-1], defects=TRACEBACK)
    if res.rc != 0:
        return Verdict(False, f"exit {res.rc}: {res.err.strip()}")
    if res.err:
        return Verdict(False, f"unexpected stderr: {res.err.strip()}")
    return json.loads(res.out)


def expect_refusal(res: CliResult, codes) -> Verdict:
    """Exit code in `codes` and exactly one `error:` line on stderr."""
    if res.traceback or "Traceback (most recent call last)" in res.err:
        return Verdict(False, "traceback: " + res.err.strip().splitlines()[-1], defects=TRACEBACK)
    if res.rc not in codes:
        return Verdict(False, f"exit {res.rc}, expected {sorted(codes)}")
    lines = res.err.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return Verdict(False, f"stderr is not one 'error:' line: {res.err!r}")
    if res.out:
        return Verdict(False, "refusal printed a result")
    return Verdict(True)


def close(got, want, rel: float, abs_tol: float = 0.0) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= max(abs_tol, rel * abs(want))

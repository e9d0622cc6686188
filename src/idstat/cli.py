"""Command-line front end.

Each operation is a subcommand with deterministic machine-readable output;
`verify-paper` replays the full identity suite and prints a pass/fail
ledger.  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 Bose divergence, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import observables, statmech, symmetry
from .config import MODES, OUTPUT_FORMATS, RunConfig, load_config
from .errors import (
    BoseDivergence,
    CapacityExceeded,
    IdstatError,
    InputError,
)
from .render import Report, fmt_float, table_text
from .verify import noted_count, run_verification, verification_passed


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so main() owns the exit code."""

    def error(self, message):
        raise InputError(message)


# -- argument parsing helpers ------------------------------------------------


def _parse_levels(text: str) -> tuple[tuple[int, ...], list[str]]:
    """Comma-separated level labels: all symbolic (a,b,c) or all numeric
    1-based quantum numbers; mixing kinds is an input error.  Returns the
    0-based internal levels plus a display label per level index."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise InputError("empty level list")
    if all(t.isalpha() for t in tokens):
        ordered = sorted(set(tokens))
        index = {label: i for i, label in enumerate(ordered)}
        return tuple(index[t] for t in tokens), ordered
    if all(t.lstrip("+-").isdigit() for t in tokens):
        values = [int(t) for t in tokens]
        if any(v < 1 for v in values):
            raise InputError("numeric levels are 1-based quantum numbers")
        top = max(values)
        return tuple(v - 1 for v in values), [str(i + 1) for i in range(top)]
    raise InputError(f"mixed symbolic/numeric level labels in {text!r}")


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational list {text!r}: {exc}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad number list {text!r}: {exc}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}: {exc}") from exc


def _parse_parity(text: str) -> str:
    parity = text.strip().upper()
    if parity not in ("S", "A"):
        raise InputError(f"parity must be S or A, got {text!r}")
    return parity


def _amp_json(value) -> dict:
    return {"exact": str(value), "float": float(value)}


def _state_label(state, labels) -> list[str]:
    return [labels[i] for i in state]


def _vector_terms(vec, labels) -> list[dict]:
    return [
        {"state": _state_label(s, labels), "exact": str(a), "float": float(a)}
        for s, a in vec.items()
    ]


def _vector_lines(vec, labels) -> list[str]:
    return [
        f"  |{','.join(_state_label(s, labels))}>  {a}  ({fmt_float(float(a))})"
        for s, a in vec.items()
    ]


# -- state construction shared by decompose / classify / expect --------------


def _add_state_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--levels", "-l", required=True, help="comma-separated level labels")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--product", action="store_true", help="bare product state")
    kind.add_argument(
        "--member",
        choices=symmetry.ORBIT_BASIS_NAMES,
        help="distinct-level 3-particle basis member",
    )
    kind.add_argument("--parity", "-p", help="S or A: (anti)symmetrized state")


def _build_state(args):
    levels, labels = _parse_levels(args.levels)
    if args.member:
        basis = dict(zip(symmetry.ORBIT_BASIS_NAMES, symmetry.orbit_basis_n3(levels)))
        return basis[args.member], labels, f"member:{args.member}"
    if args.parity:
        parity = _parse_parity(args.parity)
        res = symmetry.symmetrize(levels, parity)
        if res.is_zero:
            raise InputError(
                "antisymmetrization cancels for repeated levels; nothing to analyze"
            )
        return res.vector, labels, f"parity:{parity}"
    return symmetry.product_state_vector(levels), labels, "product"


# -- subcommand handlers ------------------------------------------------------


def cmd_symmetrize(args, cfg: RunConfig) -> Report:
    levels, labels = _parse_levels(args.levels)
    if args.n_particles is not None and args.n_particles != len(levels):
        raise InputError(
            f"-n {args.n_particles} disagrees with {len(levels)} level labels"
        )
    parity = _parse_parity(args.parity)
    res = symmetry.symmetrize(levels, parity)
    data = {
        "command": "symmetrize",
        "n": len(levels),
        "parity": parity,
        "levels": [labels[i] for i in levels],
        "zero_vector": res.is_zero,
        "raw_norm_squared": _amp_json(res.raw_norm_squared),
        "norm_squared": _amp_json(res.vector.norm_squared()),
        "terms": _vector_terms(res.vector, labels),
    }
    table = [["state", "exact", "float"]] + [
        [",".join(t["state"]), t["exact"], t["float"]] for t in data["terms"]
    ]
    if res.is_zero:
        text = (
            f"parity {parity} on ({','.join(data['levels'])}): "
            "zero vector (alternating sum cancels)"
        )
    else:
        text = "\n".join(
            [f"parity {parity} unit vector on ({','.join(data['levels'])}):"]
            + _vector_lines(res.vector, labels)
            + [f"  raw_norm_squared = {res.raw_norm_squared}"]
        )
    return Report(data, table, text)


def cmd_mixed_basis(args, cfg: RunConfig) -> Report:
    levels, labels = _parse_levels(args.levels)
    names = symmetry.ORBIT_BASIS_NAMES if args.full else symmetry.MIXED_BASIS_NAMES
    basis = dict(zip(symmetry.ORBIT_BASIS_NAMES, symmetry.orbit_basis_n3(levels)))
    data = {
        "command": "mixed-basis",
        "levels": [labels[i] for i in levels],
        "vectors": [
            {"name": name, "terms": _vector_terms(basis[name], labels)}
            for name in names
        ],
    }
    table = [["vector", "state", "exact", "float"]]
    lines = []
    for name in names:
        lines.append(f"{name}:")
        lines.extend(_vector_lines(basis[name], labels))
        for s, a in basis[name].items():
            table.append([name, ",".join(_state_label(s, labels)), str(a), float(a)])
    return Report(data, table, "\n".join(lines))


def cmd_decompose(args, cfg: RunConfig) -> Report:
    vec, labels, state_desc = _build_state(args)
    levels, _ = _parse_levels(args.levels)
    basis = symmetry.orbit_basis_n3(levels)
    coeffs, residual = symmetry.decompose(vec, list(basis))
    total = coeffs[0] * coeffs[0]
    for c in coeffs[1:]:
        total = total + c * c
    data = {
        "command": "decompose",
        "state": state_desc,
        "levels": args.levels,
        "coefficients": [
            {"basis": name, "exact": str(c), "float": float(c)}
            for name, c in zip(symmetry.ORBIT_BASIS_NAMES, coeffs)
        ],
        "residual_norm_squared": _amp_json(residual.norm_squared()),
        "sum_of_squares": _amp_json(total),
    }
    table = [["basis", "exact", "float"]] + [
        [c["basis"], c["exact"], c["float"]] for c in data["coefficients"]
    ]
    lines = [f"decomposition of {state_desc} state on ({args.levels}):"]
    for c in data["coefficients"]:
        lines.append(f"  {c['basis']:8} {c['exact']}  ({fmt_float(c['float'])})")
    lines.append(f"  residual_norm_squared = {residual.norm_squared()}")
    lines.append(f"  sum_of_squares = {total}")
    return Report(data, table, "\n".join(lines))


def cmd_classify(args, cfg: RunConfig) -> Report:
    vec, labels, state_desc = _build_state(args)
    cls = symmetry.classify_symmetry(vec)
    data = {"command": "classify", "state": state_desc, "levels": args.levels}
    data.update(cls.to_json())
    table = [["tag", "pair", "member"], [cls.tag.value, cls.pair, cls.member]]
    bits = [f"tag = {cls.tag.value}"]
    if cls.pair is not None:
        bits.append(f"pair = {cls.pair}")
    if cls.member is not None:
        bits.append(f"member = {cls.member}")
    return Report(data, table, f"{state_desc} state on ({args.levels}): " + ", ".join(bits))


def cmd_expect(args, cfg: RunConfig) -> Report:
    vec, labels, state_desc = _build_state(args)
    if args.particle < 1 or args.particle > vec.n_particles:
        raise InputError(
            f"--particle must be in 1..{vec.n_particles}, got {args.particle}"
        )
    particle = args.particle - 1
    if (args.epsilon is None) == (not args.box_x):
        raise InputError("choose exactly one operator: --epsilon values or --box-x")
    if args.epsilon is not None:
        eps = _parse_fractions(args.epsilon)
        if len(eps) < vec.basis_size:
            raise InputError(
                f"--epsilon needs at least {vec.basis_size} values, got {len(eps)}"
            )
        op = observables.OneBodyOperator.diagonal(eps)
        op_desc = "diag(" + ",".join(str(e) for e in eps) + ")"
    else:
        op = observables.box_position_operator(args.length, vec.basis_size)
        op_desc = f"box-x(L={args.length})"
    value = observables.one_body_expectation(vec, op, particle)
    exact = str(value) if op.exact else None
    data = {
        "command": "expect",
        "state": state_desc,
        "levels": args.levels,
        "operator": op_desc,
        "particle": args.particle,
        "exact": exact,
        "float": float(value),
    }
    table = [["particle", "operator", "exact", "float"],
             [args.particle, op_desc, exact if exact else "", float(value)]]
    shown = f"{exact} = {fmt_float(float(value))}" if exact else fmt_float(float(value))
    text = f"<{op_desc}> for particle {args.particle} of {state_desc} state: {shown}"
    return Report(data, table, text)


def cmd_occupations(args, cfg: RunConfig) -> Report:
    stat = statmech.Statistics.parse(args.stat)
    states = list(statmech.enumerate_occupations(args.n_levels, args.n_particles, stat))
    closed = statmech.occupation_count(args.n_levels, args.n_particles, stat)
    data = {
        "command": "occupations",
        "statistics": stat.value,
        "n_levels": args.n_levels,
        "n_particles": args.n_particles,
        "count": len(states),
        "closed_form": closed,
        "states": [list(s.as_vector(args.n_levels)) for s in states],
    }
    table = [[f"level_{i+1}" for i in range(args.n_levels)]] + data["states"]
    lines = [
        f"{stat.value} occupation states for N = {args.n_particles} "
        f"on {args.n_levels} levels: {len(states)} (closed form {closed})"
    ] + ["  " + " ".join(str(c) for c in row) for row in data["states"]]
    return Report(data, table, "\n".join(lines))


def _constants(cfg: RunConfig, mass: float) -> tuple[float, float, float]:
    if cfg.mode == "si":
        return mass, statmech.PLANCK_H_SI, statmech.BOLTZMANN_K_SI
    return mass, 1.0, 1.0


def _build_spectrum(args, cfg: RunConfig, mass: float, h: float) -> statmech.Spectrum:
    sources = [
        args.levels is not None,
        args.spectrum_file is not None,
        args.box1d is not None,
        args.box3d is not None,
        args.dimensionless is not None,
    ]
    if sum(sources) != 1:
        raise InputError(
            "choose exactly one spectrum source: --levels, --spectrum-file, "
            "--box1d, --box3d, or --dimensionless"
        )
    if args.levels is not None:
        return statmech.spectrum_from_levels(_parse_floats(args.levels))
    if args.spectrum_file is not None:
        return statmech.spectrum_from_csv(args.spectrum_file)
    if args.box1d is not None:
        return statmech.box1d_spectrum(args.box1d, args.length, mass, h)
    if args.box3d is not None:
        return statmech.box3d_spectrum(args.box3d, args.length, mass, h)
    return statmech.dimensionless_spectrum(args.dimensionless)


def cmd_partition(args, cfg: RunConfig) -> Report:
    stat = statmech.Statistics.parse(args.stat)
    mass, h, k = _constants(cfg, args.mass)

    if args.continuum:
        if args.V is None or args.N is None or args.T is None:
            raise InputError("--continuum needs --V, --N, and --T")
        tp = statmech.ThermoPoint(T=args.T, V=args.V, N=args.N, mass=mass, h=h, k=k)
        ln_Z = statmech.mb_ln_Z_continuum(tp, stat)
        data = {
            "command": "partition",
            "kind": "continuum",
            "statistics": stat.value,
            "T": args.T,
            "V": args.V,
            "N": args.N,
            "ln_Z": ln_Z,
            "F": statmech.free_energy_from_ln_Z(ln_Z, args.T, k),
            "thermal_wavelength": statmech.thermal_wavelength(tp),
            "note": statmech.FREE_ENERGY_NOTE,
        }
        table = [["quantity", "value"]] + [
            [key, data[key]] for key in ("ln_Z", "F", "thermal_wavelength")
        ]
        text = "\n".join(
            [
                f"continuum {stat.value}: T = {fmt_float(args.T)}, "
                f"V = {fmt_float(args.V)}, N = {args.N}",
                f"  ln_Z = {fmt_float(ln_Z)}",
                f"  F = {fmt_float(data['F'])}",
                f"  thermal_wavelength = {fmt_float(data['thermal_wavelength'])}",
                f"  note: {statmech.FREE_ENERGY_NOTE}",
            ]
        )
        return Report(data, table, text)

    if args.T is not None and args.beta is not None:
        raise InputError("give either --beta or --T, not both")
    if args.T is not None:
        beta = 1.0 / (k * args.T)
    elif args.beta is not None:
        beta = args.beta
    else:
        raise InputError("canonical and grand ensembles need --beta or --T")

    spectrum = _build_spectrum(args, cfg, mass, h)

    if args.mu is not None:
        if args.N is not None:
            raise InputError("give either -N (canonical) or --mu (grand), not both")
        ln_Xi = statmech.grand_ln_Xi(spectrum, beta, args.mu, stat)
        data = {
            "command": "partition",
            "kind": "grand",
            "statistics": stat.value,
            "beta": beta,
            "mu": args.mu,
            "n_levels": len(spectrum),
            "ln_Xi": ln_Xi,
            "Xi": math.exp(ln_Xi) if abs(ln_Xi) < 700 else None,
        }
        table = [["quantity", "value"], ["ln_Xi", ln_Xi]]
        if data["Xi"] is not None:
            table.append(["Xi", data["Xi"]])
        text = "\n".join(
            [
                f"grand {stat.value}: beta = {fmt_float(beta)}, mu = {fmt_float(args.mu)}, "
                f"{len(spectrum)} levels",
                f"  ln_Xi = {fmt_float(ln_Xi)}",
            ]
            + ([f"  Xi = {fmt_float(data['Xi'])}"] if data["Xi"] is not None else [])
        )
        return Report(data, table, text)

    if args.N is None:
        raise InputError("canonical ensemble needs -N (or --mu for the grand ensemble)")
    n = args.N
    ln_Z = statmech.canonical_ln_Z(spectrum, n, beta, stat)
    if ln_Z == -math.inf:  # more fermions than levels
        Z, ln_Z = 0.0, None
    else:
        Z = math.exp(ln_Z) if abs(ln_Z) < 700 else None
    method = "generating-function" if stat.quantum else "closed-form"
    T = 1.0 / (k * beta)
    F = statmech.free_energy_from_ln_Z(ln_Z, T, k) if ln_Z is not None else None
    data = {
        "command": "partition",
        "kind": "canonical",
        "statistics": stat.value,
        "beta": beta,
        "N": n,
        "n_levels": len(spectrum),
        "method": method,
        "Z": Z,
        "ln_Z": ln_Z,
        "F": F,
        "note": statmech.FREE_ENERGY_NOTE,
    }
    table = [["quantity", "value"]]
    text_lines = [
        f"canonical {stat.value}: N = {n}, beta = {fmt_float(beta)}, "
        f"{len(spectrum)} levels ({method})"
    ]
    if Z is not None:
        table.append(["Z", Z])
        text_lines.append(f"  Z = {fmt_float(Z)}")
    if ln_Z is not None:
        table.append(["ln_Z", ln_Z])
        table.append(["F", F])
        text_lines.append(f"  ln_Z = {fmt_float(ln_Z)}")
        text_lines.append(f"  F = {fmt_float(F)}")
    text_lines.append(f"  note: {statmech.FREE_ENERGY_NOTE}")
    return Report(data, table, "\n".join(text_lines))


def cmd_extensivity(args, cfg: RunConfig) -> Report:
    stat = statmech.Statistics.parse(args.stat)
    mass, h, k = _constants(cfg, args.mass)
    if args.sizes is not None:
        sizes = []
        for token in args.sizes.split(","):
            token = token.strip()
            if not token:
                continue
            if ":" not in token:
                raise InputError(f"--sizes entries are V:N pairs, got {token!r}")
            v_text, n_text = token.split(":", 1)
            try:
                sizes.append((float(v_text), int(n_text)))
            except ValueError as exc:
                raise InputError(f"bad --sizes entry {token!r}: {exc}") from exc
    else:
        n_list = _parse_ints(args.n_list)
        sizes = [(args.per_volume * n, n) for n in n_list]
    if not sizes:
        raise InputError("no system sizes given")

    builder = None
    if args.discrete:
        cutoff = args.box1d if args.box1d is not None else 12
        builder = lambda V: statmech.box1d_spectrum(cutoff, V, mass, h)
    report = statmech.extensivity_report(
        stat,
        args.T,
        sizes,
        mass=mass,
        h=h,
        k=k,
        continuum=not args.discrete,
        spectrum_builder=builder,
    )
    data = {"command": "extensivity"}
    data.update(report.to_json())
    table = report.table()
    lines = [
        f"extensivity of F for {stat.value} at T = {fmt_float(args.T)} "
        f"({'discrete box' if args.discrete else 'continuum'}):",
        table_text(table),
        f"  note: {report.note}",
    ]
    for check in report.checks:
        status = "pass" if check["passed"] else "FAIL"
        lines.append(f"  [{status}] {check['name']}")
    return Report(data, table, "\n".join(lines))


def cmd_verify_paper(args, cfg: RunConfig) -> Report:
    results = run_verification(cfg.seed)
    failed = sum(1 for r in results if r.status == "fail")
    passed = sum(1 for r in results if r.status == "pass")
    data = {
        "command": "verify-paper",
        "checks": [r.to_json() for r in results],
        "summary": {
            "passed": passed,
            "failed": failed,
            "noted": noted_count(results),
            "ok": verification_passed(results),
        },
    }
    table = [["id", "status", "claim", "lhs", "rhs", "tolerance"]] + [
        [r.check_id, r.status, r.claim, r.lhs, r.rhs, r.tolerance] for r in results
    ]
    lines = [
        f"{r.status.upper():6} {r.check_id:24} {r.claim} | {r.lhs} | expected: {r.rhs}"
        for r in results
    ]
    lines.append(
        f"summary: {passed} passed, {failed} failed, {noted_count(results)} noted"
    )
    return Report(data, table, "\n".join(lines))


HANDLERS = {
    "symmetrize": cmd_symmetrize,
    "mixed-basis": cmd_mixed_basis,
    "decompose": cmd_decompose,
    "classify": cmd_classify,
    "expect": cmd_expect,
    "occupations": cmd_occupations,
    "partition": cmd_partition,
    "extensivity": cmd_extensivity,
    "verify-paper": cmd_verify_paper,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="idstat", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--mode", choices=MODES, help="unit system")
    common.add_argument("--output", choices=OUTPUT_FORMATS, help="output format")
    common.add_argument("--seed", type=int, help="seed for randomized sweeps")
    common.add_argument("--out", help="write output to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("symmetrize", parents=[common], help="(anti)symmetrize a product state")
    p.add_argument("-n", type=int, dest="n_particles", help="particle count (checked against labels)")
    p.add_argument("--levels", "-l", required=True, help="comma-separated level labels")
    p.add_argument("--parity", "-p", required=True, help="S or A")

    p = sub.add_parser("mixed-basis", parents=[common], help="distinct-level 3-particle basis")
    p.add_argument("--levels", "-l", default="a,b,c", help="three distinct level labels")
    p.add_argument("--full", action="store_true", help="include the symmetric and antisymmetric members")

    p = sub.add_parser("decompose", parents=[common], help="decompose a state on the six-vector basis")
    _add_state_options(p)

    p = sub.add_parser("classify", parents=[common], help="classify exchange symmetry")
    _add_state_options(p)

    p = sub.add_parser("expect", parents=[common], help="per-particle expectation value")
    _add_state_options(p)
    p.add_argument("--particle", type=int, required=True, help="1-based particle index")
    p.add_argument("--epsilon", help="diagonal operator values, comma-separated rationals")
    p.add_argument("--box-x", action="store_true", help="box position operator")
    p.add_argument("--length", type=float, default=1.0, help="box length for --box-x")

    p = sub.add_parser("occupations", parents=[common], help="enumerate occupation states")
    p.add_argument("--n-levels", type=int, required=True, dest="n_levels")
    p.add_argument("-N", "--N", type=int, required=True, dest="n_particles")
    p.add_argument("--stat", required=True, help="be, fd, mb-nn, or mb-fact")

    p = sub.add_parser("partition", parents=[common], help="canonical Z, grand Xi, or continuum ln Z")
    p.add_argument("--stat", required=True, help="be, fd, mb-nn, or mb-fact")
    p.add_argument("--levels", help="energies, comma-separated")
    p.add_argument("--spectrum-file", dest="spectrum_file", help="CSV with energy[,degeneracy]")
    p.add_argument("--box1d", type=int, help="1-D box spectrum with this many levels")
    p.add_argument("--box3d", type=int, help="3-D box spectrum with this many levels")
    p.add_argument("--dimensionless", type=int, help="n^2 spectrum with this many levels")
    p.add_argument("--length", type=float, default=1.0, help="box length")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("-N", "--N", type=int, dest="N", help="particle number (canonical)")
    p.add_argument("--mu", type=float, help="chemical potential (grand)")
    p.add_argument("--beta", type=float, help="inverse temperature")
    p.add_argument("--T", type=float, dest="T", help="temperature")
    p.add_argument("--continuum", action="store_true", help="closed-form Boltzmann gas")
    p.add_argument("--V", type=float, dest="V", help="volume (continuum)")

    p = sub.add_parser("extensivity", parents=[common], help="F(T,V,N) vs N*F(T,V/N,1) table")
    p.add_argument("--stat", required=True, help="be, fd, mb-nn, or mb-fact")
    p.add_argument("--T", type=float, required=True, dest="T")
    p.add_argument("--sizes", help="comma-separated V:N pairs")
    p.add_argument("--per-volume", type=float, default=1.0, dest="per_volume",
                   help="volume per particle when using --n-list")
    p.add_argument("--n-list", dest="n_list", default="1,2,10,100,10000",
                   help="particle numbers when --sizes is not given")
    p.add_argument("--discrete", action="store_true", help="discrete 1-D box spectra instead of continuum")
    p.add_argument("--box1d", type=int, help="levels per box in --discrete mode (default 12)")
    p.add_argument("--mass", type=float, default=1.0)

    sub.add_parser("verify-paper", parents=[common], help="replay every identity and report a ledger")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return 0 if not exc.code else int(exc.code)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(
            getattr(args, "config", None),
            overrides={
                "mode": getattr(args, "mode", None),
                "output": getattr(args, "output", None),
                "seed": getattr(args, "seed", None),
            },
        )
        report = HANDLERS[args.command](args, cfg)
        text = report.render(cfg.output)
        if getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        else:
            print(text)
        if args.command == "verify-paper" and not report.data["summary"]["ok"]:
            return 1
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoseDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except IdstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Each operation is a subcommand with deterministic machine-readable output;
`verify-paper` replays the full identity suite and prints a pass/fail
ledger.  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 Bose divergence, 4 capacity exceeded.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import types

from .config import MODES, ORBIT_BASIS_NAMES, OUTPUT_FORMATS, RunConfig, load_config
from .errors import IdstatError, InputError, count
from .render import Report, fmt_float, table_text

# Each handler imports the library modules it uses when it runs, so a fresh
# process loads only what its command needs.

#: How a spaced value may start with "-": "-" or "-." then a digit, as a
#: negative number, list or rational does.  No flag starts so.
_NEGATIVE = r"-\.?\d"


# -- argument parsing helpers ------------------------------------------------

#: Most digits of a numeric level label: a label is printed back, and up to
#: 308 digits it also reads as a finite float.
_MAX_LABEL_DIGITS = 308
#: Most digits the --epsilon list may need all told (see _digits): the
#: exact expectation combines every entry, and with a value up to the float
#: range its text stays within CPython's 4300-digit int <-> str limit.
_MAX_EPSILON_DIGITS = 3900


def _parse_levels(text: str) -> tuple[tuple[int, ...], dict[int, str]]:
    """Comma-separated level labels: all symbolic (a,b,c) or all numeric
    1-based quantum numbers; mixing kinds is an input error.  Returns the
    0-based internal levels plus the display label of each level given."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise InputError("empty level list")
    if all(t.isalpha() for t in tokens):
        ordered = sorted(set(tokens))
        index = {label: i for i, label in enumerate(ordered)}
        return tuple([index[t] for t in tokens]), dict(enumerate(ordered))
    if all(t.lstrip("+-").isdigit() for t in tokens):
        if any(len(t) > _MAX_LABEL_DIGITS for t in tokens):
            raise InputError(f"numeric level labels have at most {_MAX_LABEL_DIGITS} digits")
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:  # digits int() does not read, such as superscripts
            raise InputError(f"numeric level labels must be decimal integers: {exc}") from exc
        if any(v < 1 for v in values):
            raise InputError("numeric levels are 1-based quantum numbers")
        return tuple([v - 1 for v in values]), {v - 1: str(v) for v in values}
    raise InputError(f"mixed symbolic/numeric level labels in {text!r}")


def _parse_list(text: str, convert, what: str) -> list:
    try:
        return [convert(tok) for tok in map(str.strip, text.split(",")) if tok]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {what} list {text!r}: {exc}") from exc


def _digits(token: str) -> int:
    """Most digits the rational `token` can need: its length plus the power
    of ten its exponent asks for."""
    return len(token) + abs(int(token.lower().partition("e")[2] or 0))


def _rational(token: str):
    """One exact --epsilon entry.  The expectation is printed as a float
    too, so an entry past the float range is refused."""
    from fractions import Fraction

    value = Fraction(token)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"{token!r} is beyond the float range")
    return value


def _finite(text: str) -> float:
    """Option type: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """Option type: a positive finite number (temperature, volume, mass,
    length)."""
    value = _finite(text)
    if value <= 0:
        raise InputError(f"expected a positive number, got {text!r}")
    return value


def _size(token: str) -> tuple[float, int]:
    v_text, n_text = token.split(":")
    return float(v_text), int(n_text)


def _parse_parity(text: str) -> str:
    parity = text.strip().upper()
    if parity not in ("S", "A"):
        raise InputError(f"parity must be S or A, got {text!r}")
    return parity


# -- views: CSV rows and pretty text, each a function of the JSON data --------


def _amp_json(value) -> dict:
    return {"exact": str(value), "float": float(value)}


def _vector_terms(vec, labels) -> list[dict]:
    """One term per product state; the terms that share an amplitude object
    (an orbit vector has one or two) share its exact and float views."""
    terms = vec.items()
    views = {key: _amp_json(a) for key, a in {id(a): a for _, a in terms}.items()}
    return [{"state": [labels[i] for i in s], **views[id(a)]} for s, a in terms]


def _table(columns, items) -> list:
    """A header row of `columns`, then one row of those keys per item."""
    return [list(columns)] + [[item[key] for key in columns] for item in items]


def _term_row(t: dict) -> list:
    return [",".join(t["state"]), t["exact"], t["float"]]


def _term_line(t: dict) -> str:
    return f"  |{','.join(t['state'])}>  {t['exact']}  ({fmt_float(t['float'])})"


def _symmetrize_text(data: dict) -> str:
    parity, levels = data["parity"], ",".join(data["levels"])
    if data["zero_vector"]:
        return f"parity {parity} on ({levels}): zero vector (alternating sum cancels)"
    return "\n".join(
        [f"parity {parity} unit vector on ({levels}):", *map(_term_line, data["terms"]),
         f"  raw_norm_squared = {data['raw_norm_squared']['exact']}"]
    )


def _basis_text(data: dict) -> str:
    return "\n".join(
        line for v in data["vectors"] for line in [f"{v['name']}:", *map(_term_line, v["terms"])]
    )


def _decompose_text(data: dict) -> str:
    return "\n".join(
        [f"decomposition of {data['state']} state on ({data['levels']}):"]
        + [f"  {c['basis']:8} {c['exact']}  ({fmt_float(c['float'])})" for c in data["coefficients"]]
        + [f"  {key} = {data[key]['exact']}" for key in ("residual_norm_squared", "sum_of_squares")]
    )


_CLASS_KEYS = ("tag", "pair", "member")


def _classify_text(data: dict) -> str:
    bits = [f"{key} = {data[key]}" for key in _CLASS_KEYS if data[key] is not None]
    return f"{data['state']} state on ({data['levels']}): " + ", ".join(bits)


def _expect_text(data: dict) -> str:
    shown = fmt_float(data["float"])
    if data["exact"]:
        shown = f"{data['exact']} = {shown}"
    return f"<{data['operator']}> for particle {data['particle']} of {data['state']} state: {shown}"


def _occupations_text(data: dict) -> str:
    return "\n".join(
        [f"{data['statistics']} occupation states for N = {data['n_particles']} "
         f"on {data['n_levels']} levels: {data['count']} (closed form {data['closed_form']})"]
        + ["  " + " ".join(map(str, row)) for row in data["states"]]
    )


_QUANTITIES = {
    "continuum": ("ln_Z", "F", "thermal_wavelength"),
    "grand": ("ln_Xi", "Xi"),
    "canonical": ("Z", "ln_Z", "F"),
}


def _quantities(data: dict) -> list:
    """The (key, value) pairs of a `partition` result that are not None."""
    return [(key, data[key]) for key in _QUANTITIES[data["kind"]] if data[key] is not None]


def _partition_rows(data: dict) -> list:
    return [["quantity", "value"], *map(list, _quantities(data))]


def _partition_text(data: dict) -> str:
    kind, stat = data["kind"], data["statistics"]
    if kind == "continuum":
        head = f"T = {fmt_float(data['T'])}, V = {fmt_float(data['V'])}, N = {data['N']}"
    elif kind == "grand":
        head = f"beta = {fmt_float(data['beta'])}, mu = {fmt_float(data['mu'])}, {data['n_levels']} levels"
    else:
        head = (f"N = {data['N']}, beta = {fmt_float(data['beta'])}, "
                f"{data['n_levels']} levels ({data['method']})")
    lines = [f"{kind} {stat}: {head}"]
    lines += [f"  {key} = {fmt_float(value)}" for key, value in _quantities(data)]
    if "note" in data:
        lines.append(f"  note: {data['note']}")
    return "\n".join(lines)


_EXTENSIVITY_COLUMNS = ("V", "N", "ln_Z", "F", "F_per_particle", "extensivity_defect")


def _extensivity_text(data: dict, discrete: bool) -> str:
    return "\n".join(
        [f"extensivity of F for {data['statistics']} at T = {fmt_float(data['T'])} "
         f"({'discrete box' if discrete else 'continuum'}):",
         table_text(_table(_EXTENSIVITY_COLUMNS, data["rows"])),
         f"  note: {data['note']}"]
        + [f"  [{'pass' if c['passed'] else 'FAIL'}] {c['name']}" for c in data["checks"]]
    )


_LEDGER_COLUMNS = ("id", "status", "claim", "lhs", "rhs", "tolerance")


def _ledger_text(data: dict) -> str:
    summary = data["summary"]
    return "\n".join(
        [f"{c['status'].upper():6} {c['id']:24} {c['claim']} | {c['lhs']} | expected: {c['rhs']}"
         for c in data["checks"]]
        + [f"summary: {summary['passed']} passed, {summary['failed']} failed, {summary['noted']} noted"]
    )


# -- state construction shared by decompose / classify / expect --------------


def _build_state(args):
    """The state the options name, the 0-based levels it was built on, and
    its description."""
    from . import symmetry

    levels, _ = _parse_levels(args.levels)
    if args.member:
        basis = dict(zip(ORBIT_BASIS_NAMES, symmetry.orbit_basis_n3(levels)))
        return basis[args.member], levels, f"member:{args.member}"
    if args.parity:
        parity = _parse_parity(args.parity)
        res = symmetry.symmetrize(levels, parity)
        if res.is_zero:
            raise InputError("antisymmetrization cancels for repeated levels; nothing to analyze")
        return res.vector, levels, f"parity:{parity}"
    return symmetry.product_state_vector(levels), levels, "product"


# -- subcommand handlers ------------------------------------------------------


def cmd_symmetrize(args, cfg: RunConfig) -> Report:
    from . import symmetry

    levels, labels = _parse_levels(args.levels)
    if args.n_particles is not None and args.n_particles != len(levels):
        raise InputError(f"-n {args.n_particles} disagrees with {len(levels)} level labels")
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
    return Report(data, lambda d: [["state", "exact", "float"], *map(_term_row, d["terms"])],
                  _symmetrize_text)


def cmd_mixed_basis(args, cfg: RunConfig) -> Report:
    from . import symmetry

    levels, labels = _parse_levels(args.levels)
    names = ORBIT_BASIS_NAMES if args.full else ORBIT_BASIS_NAMES[2:]
    basis = dict(zip(ORBIT_BASIS_NAMES, symmetry.orbit_basis_n3(levels)))
    data = {
        "command": "mixed-basis",
        "levels": [labels[i] for i in levels],
        "vectors": [{"name": name, "terms": _vector_terms(basis[name], labels)} for name in names],
    }
    rows = lambda d: [["vector", "state", "exact", "float"]] + [
        [v["name"], *_term_row(t)] for v in d["vectors"] for t in v["terms"]]
    return Report(data, rows, _basis_text)


def cmd_decompose(args, cfg: RunConfig) -> Report:
    from . import symmetry

    vec, levels, state_desc = _build_state(args)
    basis = symmetry.orbit_basis_n3(levels)
    coeffs, residual = symmetry.decompose(vec, list(basis))
    data = {
        "command": "decompose",
        "state": state_desc,
        "levels": args.levels,
        "coefficients": [
            {"basis": name, **_amp_json(c)}
            for name, c in zip(ORBIT_BASIS_NAMES, coeffs)
        ],
        "residual_norm_squared": _amp_json(residual.norm_squared()),
        "sum_of_squares": _amp_json(sum(c * c for c in coeffs)),
    }
    return Report(data, lambda d: _table(("basis", "exact", "float"), d["coefficients"]), _decompose_text)


def cmd_classify(args, cfg: RunConfig) -> Report:
    from . import symmetry

    vec, _, state_desc = _build_state(args)
    cls = symmetry.classify_symmetry(vec)
    data = {"command": "classify", "state": state_desc, "levels": args.levels}
    data.update(cls.to_json())
    return Report(data, lambda d: _table(_CLASS_KEYS, [d]), _classify_text)


def cmd_expect(args, cfg: RunConfig) -> Report:
    from . import observables

    vec, _, state_desc = _build_state(args)
    if args.particle < 1 or args.particle > vec.n_particles:
        raise InputError(f"--particle must be in 1..{vec.n_particles}, got {args.particle}")
    particle = args.particle - 1
    if (args.epsilon is None) == (not args.box_x):
        raise InputError("choose exactly one operator: --epsilon values or --box-x")
    if args.epsilon is not None:
        # Fraction reads every digit and builds 10**exponent however large,
        # so the list is sized before any Fraction is built.
        if (len(args.epsilon) > _MAX_EPSILON_DIGITS
                or sum(_parse_list(args.epsilon, _digits, "rational")) > _MAX_EPSILON_DIGITS):
            raise InputError(f"--epsilon {args.epsilon!r} needs more than {_MAX_EPSILON_DIGITS} digits")
        eps = _parse_list(args.epsilon, _rational, "rational")
        if len(eps) < vec.basis_size:
            raise InputError(f"--epsilon needs at least {vec.basis_size} values, got {len(eps)}")
        op = observables.OneBodyOperator.diagonal(eps)
        op_desc = "diag(" + ",".join(str(e) for e in eps) + ")"
    else:
        op = observables.box_position_operator(args.length, vec.basis_size)
        op_desc = f"box-x(L={args.length})"
    value = observables.one_body_expectation(vec, op, particle)
    data = {
        "command": "expect",
        "state": state_desc,
        "levels": args.levels,
        "operator": op_desc,
        "particle": args.particle,
        "exact": None if isinstance(value, float) else str(value),
        "float": float(value),
    }
    return Report(data, lambda d: _table(("particle", "operator", "exact", "float"), [d]), _expect_text)


def cmd_occupations(args, cfg: RunConfig) -> Report:
    from . import statmech

    stat = statmech.Statistics.parse(args.stat)
    states = list(statmech.occupation_vectors(args.n_levels, args.n_particles, stat))
    data = {
        "command": "occupations",
        "statistics": stat.value,
        "n_levels": args.n_levels,
        "n_particles": args.n_particles,
        "count": len(states),
        "closed_form": statmech.occupation_count(args.n_levels, args.n_particles, stat),
        "states": states,
    }
    rows = lambda d: [[f"level_{i+1}" for i in range(d["n_levels"])], *d["states"]]
    return Report(data, rows, _occupations_text)


def _units(cfg: RunConfig) -> tuple[float, float]:
    """Planck's and Boltzmann's constants: SI values, or 1 when dimensionless."""
    from . import statmech

    if cfg.mode == "si":
        return statmech.PLANCK_H_SI, statmech.BOLTZMANN_K_SI
    return 1.0, 1.0


#: The spectrum sources of `partition`: the canonical and grand forms read
#: exactly one, and --continuum none.
_SOURCES = ("levels", "spectrum_file", "box1d", "box3d", "dimensionless")


def _build_spectrum(args, h: float) -> statmech.Spectrum:
    from . import statmech

    if sum(getattr(args, source) is not None for source in _SOURCES) != 1:
        raise InputError("choose exactly one spectrum source: --levels, --spectrum-file, "
                         "--box1d, --box3d, or --dimensionless")
    if args.levels is not None:
        return statmech.spectrum_from_levels(_parse_list(args.levels, float, "number"))
    if args.spectrum_file is not None:
        return statmech.spectrum_from_csv(args.spectrum_file)
    if args.box1d is not None:
        return statmech.box1d_spectrum(args.box1d, args.length, args.mass, h)
    if args.box3d is not None:
        return statmech.box3d_spectrum(args.box3d, args.length, args.mass, h)
    return statmech.dimensionless_spectrum(args.dimensionless)


def cmd_partition(args, cfg: RunConfig) -> Report:
    from . import statmech

    stat = statmech.Statistics.parse(args.stat)
    h, k = _units(cfg)
    data = {"command": "partition", "statistics": stat.value}

    if args.continuum:
        unread = [dest for dest in ("beta", "mu", *_SOURCES) if getattr(args, dest) is not None]
        if unread:
            raise InputError(f"--continuum does not read --{unread[0].replace('_', '-')}")
        if args.V is None or args.N is None or args.T is None:
            raise InputError("--continuum needs --V, --N, and --T")
        ln_Z = statmech.mb_ln_Z_continuum(args.T, args.V, args.N, stat, mass=args.mass, h=h, k=k)
        data.update(kind="continuum", T=args.T, V=args.V, N=args.N, ln_Z=ln_Z,
                    F=statmech.free_energy_from_ln_Z(ln_Z, args.T, k),
                    thermal_wavelength=statmech.thermal_wavelength(args.T, mass=args.mass, h=h, k=k),
                    note=statmech.FREE_ENERGY_NOTE)
        return Report(data, _partition_rows, _partition_text)

    if args.V is not None:
        raise InputError("--V is read only with --continuum")
    if args.T is not None and args.beta is not None:
        raise InputError("give either --beta or --T, not both")
    if args.T is not None:
        beta = statmech._beta_at(args.T, k)
    elif args.beta is not None:
        beta = args.beta
    else:
        raise InputError("canonical and grand ensembles need --beta or --T")
    spectrum = _build_spectrum(args, h)
    data.update(beta=beta, n_levels=len(spectrum))

    if args.mu is not None:
        if args.N is not None:
            raise InputError("give either -N (canonical) or --mu (grand), not both")
        ln_Xi = statmech.grand_ln_Xi(spectrum, beta, args.mu, stat)
        data.update(kind="grand", mu=args.mu, ln_Xi=ln_Xi,
                    Xi=math.exp(ln_Xi) if abs(ln_Xi) < 700 else None)
        return Report(data, _partition_rows, _partition_text)

    if args.N is None:
        raise InputError("canonical ensemble needs -N (or --mu for the grand ensemble)")
    ln_Z = statmech.canonical_ln_Z(spectrum, args.N, beta, stat)
    if ln_Z == -math.inf:  # more fermions than levels
        Z, ln_Z, F = 0.0, None, None
    else:
        Z = math.exp(ln_Z) if abs(ln_Z) < 700 else None
        T = 1.0 / (k * beta) if k * beta else math.inf
        if T == math.inf:
            raise InputError(f"kT = 1/beta is out of float range at beta = {beta!r}: "
                             "T is too large or beta too small")
        F = statmech.free_energy_from_ln_Z(ln_Z, T, k)
    data.update(
        kind="canonical",
        N=args.N,
        method="generating-function" if stat.quantum else "closed-form",
        Z=Z,
        ln_Z=ln_Z,
        F=F,
        note=statmech.FREE_ENERGY_NOTE,
    )
    return Report(data, _partition_rows, _partition_text)


def cmd_extensivity(args, cfg: RunConfig) -> Report:
    from . import statmech

    stat = statmech.Statistics.parse(args.stat)
    h, k = _units(cfg)
    if args.sizes is not None:
        sizes = _parse_list(args.sizes, _size, "V:N")
    else:
        # N before V, as extensivity_report reads them: an N below 1 is refused as N
        ns = [count(n, "N", 1) for n in _parse_list(args.n_list, int, "integer")]
        try:
            sizes = [(args.per_volume * n, n) for n in ns]
        except OverflowError:  # an N past the float range
            raise InputError("V = per-volume * N is out of float range: an --n-list entry is too large") from None
    if not sizes:
        raise InputError("no system sizes given")

    if args.box1d is not None and not args.discrete:
        raise InputError("--box1d is read only with --discrete")
    builder = None
    if args.discrete:
        cutoff = args.box1d if args.box1d is not None else 12
        builder = lambda V: statmech.box1d_spectrum(cutoff, V, args.mass, h)
    report = statmech.extensivity_report(
        stat,
        args.T,
        sizes,
        mass=args.mass,
        h=h,
        k=k,
        spectrum_builder=builder,
    )
    data = {"command": "extensivity"}
    data.update(report)
    return Report(data, lambda d: _table(_EXTENSIVITY_COLUMNS, d["rows"]),
                  lambda d: _extensivity_text(d, args.discrete))


def cmd_verify_paper(args, cfg: RunConfig) -> Report:
    from . import verify

    results = verify.run_verification(cfg.seed)
    statuses = [r.status for r in results]
    data = {
        "command": "verify-paper",
        "checks": [r.to_json() for r in results],
        "summary": {
            "passed": statuses.count("pass"),
            "failed": statuses.count("fail"),
            "noted": statuses.count("noted"),
            "ok": "fail" not in statuses,
        },
    }
    return Report(data, lambda d: _table(_LEDGER_COLUMNS, d["checks"]), _ledger_text)


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


#: Each command and its one-line help, in the order --help lists them.
COMMANDS = {
    "symmetrize": "(anti)symmetrize a product state",
    "mixed-basis": "distinct-level 3-particle basis",
    "decompose": "decompose a state on the six-vector basis",
    "classify": "classify exchange symmetry",
    "expect": "per-particle expectation value",
    "occupations": "enumerate occupation states",
    "partition": "canonical Z, grand Xi, or continuum ln Z",
    "extensivity": "F(T,V,N) vs N*F(T,V/N,1) table",
    "verify-paper": "replay every identity and report a ledger",
}


#: -h/--help, the first option of every command and the only one of `idstat`.
_HELP = (("-h", "--help"), {"action": "help", "help": "show this help message and exit"})
#: The options of decompose, classify and expect that name the state: a
#: required mutually exclusive group, so exactly one of them is given.
_STATE_KIND = ((("--product",), {"action": "store_true", "help": "bare product state"}),
               (("--member",), {"choices": ORBIT_BASIS_NAMES, "help": "distinct-level 3-particle basis member"}),
               (("--parity", "-p"), {"help": "S or A: (anti)symmetrized state"}))


def _options(name: str) -> list:
    """The options of `idstat <name>` in --help order, as (flags, settings)
    with add_argument keywords: every argv is read from this table."""
    options = [_HELP]

    def add(*flags, **settings):
        options.append((flags, settings))

    add("--config", help="key=value config file")
    if name in ("partition", "extensivity"):  # the commands that read the mode
        add("--mode", choices=MODES, help="unit system")
    add("--output", choices=OUTPUT_FORMATS, help="output format")
    if name == "verify-paper":  # the one command that reads the seed
        add("--seed", type=int, help="seed for randomized sweeps")
    add("--out", help="write output to this file instead of stdout")

    if name in ("decompose", "classify", "expect"):
        add("--levels", "-l", required=True, help="comma-separated level labels")
        options += _STATE_KIND
    if name == "symmetrize":
        add("-n", type=int, dest="n_particles", help="particle count (checked against labels)")
        add("--levels", "-l", required=True, help="comma-separated level labels")
        add("--parity", "-p", required=True, help="S or A")
    elif name == "mixed-basis":
        add("--levels", "-l", default="a,b,c", help="three distinct level labels")
        add("--full", action="store_true", help="include the symmetric and antisymmetric members")
    elif name == "expect":
        add("--particle", type=int, required=True, help="1-based particle index")
        add("--epsilon", help="diagonal operator values, comma-separated rationals")
        add("--box-x", action="store_true", help="box position operator")
        add("--length", type=_positive, default=1.0, help="box length for --box-x")
    elif name == "occupations":
        add("--n-levels", type=int, required=True, dest="n_levels")
        add("-N", "--N", type=int, required=True, dest="n_particles")
        add("--stat", required=True, help="be, fd, mb-nn, or mb-fact")
    elif name == "partition":
        add("--stat", required=True, help="be, fd, mb-nn, or mb-fact")
        add("--levels", help="energies, comma-separated")
        add("--spectrum-file", dest="spectrum_file", help="CSV with energy[,degeneracy]")
        add("--box1d", type=int, help="1-D box spectrum with this many levels")
        add("--box3d", type=int, help="3-D box spectrum with this many levels")
        add("--dimensionless", type=int, help="n^2 spectrum with this many levels")
        add("--length", type=_positive, default=1.0, help="box length")
        add("--mass", type=_positive, default=1.0)
        add("-N", "--N", type=int, dest="N", help="particle number (canonical)")
        add("--mu", type=_finite, help="chemical potential (grand)")
        add("--beta", type=_positive, help="inverse temperature")
        add("--T", type=_positive, dest="T", help="temperature")
        add("--continuum", action="store_true", help="closed-form Boltzmann gas")
        add("--V", type=_positive, dest="V", help="volume (continuum)")
    elif name == "extensivity":
        add("--stat", required=True, help="be, fd, mb-nn, or mb-fact")
        add("--T", type=_positive, required=True, dest="T")
        add("--sizes", help="comma-separated V:N pairs")
        add("--per-volume", type=_positive, default=1.0, dest="per_volume",
            help="volume per particle when using --n-list")
        add("--n-list", dest="n_list", default="1,2,10,100,10000",
            help="particle numbers when --sizes is not given")
        add("--discrete", action="store_true", help="discrete 1-D box spectra instead of continuum")
        add("--box1d", type=int, help="levels per box in --discrete mode (default 12)")
        add("--mass", type=_positive, default=1.0)
    return options


def _help(name: str | None) -> str:
    """The --help text of `idstat <name>`, or of `idstat`: argparse's one use."""
    import argparse

    parser = argparse.ArgumentParser(prog="idstat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        child = sub.add_parser(command, help=text, add_help=False)
        for option in _options(command):
            if option == _STATE_KIND[0]:
                group = child.add_mutually_exclusive_group(required=True)
            (group if option in _STATE_KIND else child).add_argument(*option[0], **option[1])
    return (sub.choices[name] if name else parser).format_help()


def _match(token: str, known) -> tuple | None:
    """None if argparse reads `token` as a value, else the flag it names
    (None if no flag in `known` does) and the value attached to it, if any."""
    if token[:1] != "-" or token == "-":
        return None
    if token == "--" or token in known:  # "--" is no flag, and no value either
        return (None if token == "--" else token), None
    head, eq, tail = token.partition("=")
    if eq and head in known:
        return head, tail
    if token[1] == "-":  # a unique prefix of a long flag
        found = [(flag, tail if eq else None) for flag in known if flag.startswith(head)]
    else:  # a short flag with its value joined
        found = [(token[:2], token[2:])] if token[:2] in known else []
    if len(found) > 1:
        raise InputError(f"ambiguous option: {token} could match {', '.join(flag for flag, _ in found)}")
    if found:
        return found[0]
    return None if re.match(_NEGATIVE, token) or " " in token else (None, None)


@functools.cache
def _flag_table(name: str | None) -> tuple:
    """The options of `idstat <name>` (of `idstat` when None) as the parse
    reads them, built once per process and shared, so never changed: each
    flag's (flags, settings, attribute named as argparse names it), the
    state-kind group, the required options and each attribute's default."""
    options = _options(name) if name else [_HELP]
    dests = [s.get("dest") or next(f for f in flags if f[1] == "-")[2:].replace("-", "_") for flags, s in options]
    table = {flag: (flags, s, dest) for (flags, s), dest in zip(options, dests) for flag in flags}
    defaults = {dest: s.get("default", False if s.get("action") else None)  # help, first, has no attribute
                for (_, s), dest in zip(options[1:], dests[1:])}
    return (table, [flags for flags, s in options if (flags, s) in _STATE_KIND],
            [flags for flags, s in options if s.get("required")], {**defaults, "command": name})


def _read(name: str | None, argv: list):
    """The values the argv of `idstat <name>` gives by attribute, or None
    if -h/--help comes before any error."""
    table, group, required, defaults = _flag_table(name)
    kinds = [(t, None) if t in table else _match(t, table) if t[:1] == "-" else None for t in argv]
    values, seen, i = dict(defaults), [], 0
    while i < len(argv):
        kind, i = kinds[i], i + 1
        if kind is None or kind[0] is None:
            raise InputError(f"unrecognized arguments: {argv[i - 1]}")
        (flags, settings, dest), value = table[kind[0]], kind[1]
        try:
            if settings.get("action"):  # help or store_true: no value
                if value is not None:
                    raise InputError(f"ignored explicit argument {value!r}")
                if settings["action"] == "help":
                    return None
                value = True
            elif value is None:  # the value is the next token
                if i == len(argv) or kinds[i] is not None:
                    raise InputError("expected one argument")
                value, i = argv[i], i + 1
            convert, choices = settings.get("type"), settings.get("choices")
            try:
                value = value if convert is None else convert(value)
            except ValueError:
                raise InputError(f"invalid {convert.__name__} value: {value!r}") from None
            if choices is not None and value not in choices:
                raise InputError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
            other = [f for f in seen if f in group and f != flags] if flags in group else None
            if other:
                raise InputError(f"not allowed with argument {'/'.join(other[0])}")
        except InputError as exc:
            raise InputError(f"argument {'/'.join(flags)}: {exc}") from None
        seen.append(flags)
        values[dest] = value
    missing = ["/".join(flags) for flags in required if flags not in seen]
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    if group and not set(group) & set(seen):
        raise InputError(f"one of the arguments {' '.join(map('/'.join, group))} is required")
    return values


def _parse(argv: list):
    """The namespace of an idstat argv, or the --help text it asks for."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command is None:
            raise InputError("the following arguments are required: command")
        if command == "--" or _match(command, _HELP[0]) is None:  # a value: the name of no command
            raise InputError(f"argument command: invalid choice: {command!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
        _read(None, [command])  # refuses all but -h/--help
        return _help(None)
    values = _read(command, argv[1:])
    return _help(command) if values is None else types.SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # --help
            sys.stdout.write(args)
            return 0
        cfg = load_config(
            args.config, overrides={key: getattr(args, key, None) for key in RunConfig.__slots__}
        )
        report = HANDLERS[args.command](args, cfg)
        text = report.render(cfg.output)
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (IdstatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    if args.command == "verify-paper" and not report.data["summary"]["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""`thermo-enum` and `thermo-wide`: partition functions through
`idstat.cli.main(argv)` in this process, `--output json`.

The benchmark never names a partition kernel: the CLI decides between
enumeration (N <= 12 and K <= 20 with the default caps) and the recursion,
and the two workloads sit on either side of that choice.  Decks are
stratified by work class (occupation states for enumeration, K*N for the
recursion) so every seed has the same number of tasks per class; the seed
picks sizes inside each class's band, spectra, temperatures and chemical
potentials.
"""

from __future__ import annotations

import json
import math
import random

import refs
from tasks import LN_Z_TOL, Task, Verdict, cli_digest, close, expect_json, run_cli

ENUM_MAX_N, ENUM_MAX_K = 12, 20  # the CLI's default enumeration caps


def states(stat: str, k: int, n: int) -> int:
    return math.comb(k, n) if stat == "fd" else math.comb(k + n - 1, n)


# -- spectra ----------------------------------------------------------------


def _spectrum(rng, kind: str, k: int):
    """(argv, energies, first gap) for one seeded spectrum of k levels."""
    if kind == "dimensionless":
        energies = refs.dimensionless_levels(k)
        argv = ["--dimensionless", str(k)]
    elif kind in ("box1d", "box3d"):
        length = round(rng.uniform(0.3, 3.0), 3)
        energies = (refs.box1d_levels if kind == "box1d" else refs.box3d_levels)(k, length)
        argv = [f"--{kind}", str(k), "--length", repr(length)]
    else:
        energies, e = [], 0.0
        for _ in range(k):
            energies.append(e)
            e = round(e + rng.uniform(0.1, 2.0), 6)
        argv = ["--levels", ",".join(repr(v) for v in energies)]
    return _with_gap(argv, energies)


def _with_gap(argv, energies):
    gaps = [b - a for a, b in zip(energies, energies[1:]) if b > a]
    return argv, energies, (gaps[0] if gaps else 1.0)


def _raised(spectrum, ground: float):
    """The same --levels spectrum with every level raised by `ground`."""
    energies = [e + ground for e in spectrum[1]]
    return _with_gap(["--levels", ",".join(repr(v) for v in energies)], energies)


def _beta(rng, gap: float, lo: float = 0.02, hi: float = 5.0) -> float:
    """Inverse temperature from hot (beta*gap = lo) to cold (hi)."""
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))) / gap:.6g}")


def _pick(rng, options):
    if not options:
        raise ValueError("empty size band")
    return rng.choice(options)


# -- task constructors --------------------------------------------------------


def _recursion(stat: str, k: int, n: int) -> bool:
    """Whether the CLI sends this Fermi-Dirac Z to the recursion."""
    return stat == "fd" and (n > ENUM_MAX_N or k > ENUM_MAX_K)


def _canonical_known(stat, energies, n, beta, ln_ref, misses=None) -> set:
    """The known defect classes a canonical input is predicted to fall in."""
    known = set()
    if stat in ("be", "fd") and (ln_ref < -700 or beta * n * min(energies) > 700):
        known.add("Z-underflow")
    if _recursion(stat, len(energies), n) and (
            recursion_misses(energies, n, beta, ln_ref) if misses is None else misses):
        known.add("fd-recursion")
    return known


def canonical_task(stat, n, spectrum, beta, label, work, ln_ref=None, misses=None) -> Task:
    argv_spec, energies, _ = spectrum
    argv = ["partition", "--stat", stat, *argv_spec, "-N", str(n), "--beta", repr(beta), "--output", "json"]
    k = len(energies)
    if ln_ref is None:
        ln_ref = refs.canonical_ln_Z(energies, n, beta, stat)
    recursion = _recursion(stat, k, n)
    return Task(
        name=_name(argv),
        run=lambda: run_cli(argv),
        check=lambda res: _check_canonical(res, ln_ref, beta, recursion),
        digest=cli_digest,
        known=frozenset(_canonical_known(stat, energies, n, beta, ln_ref, misses)),
        props={"class": label, "canonical": True, "levels_x_n": k * n, "work": work,
               "regime": ("closed-form" if stat not in ("be", "fd")
                          else "enumeration" if n <= ENUM_MAX_N and k <= ENUM_MAX_K else "recursion"),
               "high_ground": beta * min(energies) > 10},
    )


def _check_canonical(res, ln_ref: float, beta: float, recursion: bool) -> Verdict:
    """`recursion`: the CLI sends this Fermi-Dirac input to the recursion, so
    a Z that is not positive or a ln Z off the reference is that defect's
    failure; elsewhere Z = 0 is the underflow defect's."""
    data = expect_json(res)
    if isinstance(data, Verdict):
        return data
    ln_z = data["ln_Z"]
    if ln_z is None:
        cls = "fd-recursion" if recursion else "Z-underflow" if data["Z"] == 0 else None
        return Verdict(False, f"no ln Z (Z = {data['Z']}), reference ln Z = {ln_ref:.6g}",
                       defects=(cls,) if cls else ())
    err = abs(ln_z - ln_ref)
    if err > LN_Z_TOL:
        return Verdict(False, f"ln Z = {ln_z:.12g}, reference {ln_ref:.12g}", err,
                       defects=("fd-recursion",) if recursion else ())
    if not close(data["F"], -ln_ref / beta, 1e-12, LN_Z_TOL / beta):  # F = -T ln Z, same tolerance
        return Verdict(False, f"F = {data['F']}", err)
    z = data["Z"]
    if z is not None and z > 1e-300 and abs(math.log(z) - ln_ref) > LN_Z_TOL:
        return Verdict(False, f"Z = {z}, reference exp({ln_ref})", err)
    return Verdict(True, ln_z_err=err)


def grand_task(stat, spectrum, beta, mu) -> Task:
    argv_spec, energies, _ = spectrum
    argv = ["partition", "--stat", stat, *argv_spec, "--mu", repr(mu), "--beta", repr(beta), "--output", "json"]
    ln_ref = refs.grand_ln_Xi(energies, beta, mu, stat)
    overflow = stat == "fd" and beta * (mu - energies[0]) > 700  # log1p(exp(.)) overflows
    return Task(
        name=_name(argv),
        run=lambda: run_cli(argv),
        check=lambda res: _check_grand(res, ln_ref),
        digest=cli_digest,
        known=frozenset({"error-boundary"} if overflow else ()),
        props={"class": "grand", "work": len(energies), "regime": "grand", "high_ground": False},
    )


def _check_grand(res, ln_ref: float) -> Verdict:
    data = expect_json(res)
    if isinstance(data, Verdict):
        return data
    if not close(data["ln_Xi"], ln_ref, 1e-10, 1e-12):
        return Verdict(False, f"ln Xi = {data['ln_Xi']}, reference {ln_ref}")
    if abs(ln_ref) < 700 and not close(data["Xi"], math.exp(ln_ref), 1e-9):
        return Verdict(False, f"Xi = {data['Xi']}, reference {math.exp(ln_ref)}")
    return Verdict(True)


def fugacity_task(stat, spectrum, beta, mu, n_max) -> Task:
    """Grand ln Xi and Z_0..Z_n_max through the CLI; checks each against
    the references and sum_N z^N Z_N against Xi (exact for FD with n_max = K,
    against the truncated reference sum for BE)."""
    argv_spec, energies, _ = spectrum
    grand = ["partition", "--stat", stat, *argv_spec, "--mu", repr(mu), "--beta", repr(beta), "--output", "json"]
    canon = [
        ["partition", "--stat", stat, *argv_spec, "-N", str(n), "--beta", repr(beta), "--output", "json"]
        for n in range(n_max + 1)
    ]
    ln_xi_ref = refs.grand_ln_Xi(energies, beta, mu, stat)
    ln_z_refs = refs.canonical_ln_Z_table(energies, beta, stat, n_max)
    k = len(energies)
    known = set().union(*(_canonical_known(stat, energies, n, beta, ln_z_refs[n]) for n in range(n_max + 1)))
    return Task(
        name=f"fugacity series {stat} N=0..{n_max}: " + _name(grand),
        run=lambda: [run_cli(a) for a in [grand, *canon]],
        check=lambda results: _check_fugacity(results, ln_xi_ref, ln_z_refs, beta, mu, stat, k),
        digest=cli_digest,
        known=frozenset(known),
        props={"class": "fugacity", "canonical": True, "levels_x_n": k * n_max * (n_max + 1) // 2,
               "work": k * n_max, "regime": "recursion", "high_ground": False},
    )


def _check_fugacity(results, ln_xi_ref, ln_z_refs, beta, mu, stat, k) -> Verdict:
    verdict = _check_grand(results[0], ln_xi_ref)
    if not verdict.ok:
        return verdict
    ln_terms, worst = [], 0.0
    for n, (res, ln_ref) in enumerate(zip(results[1:], ln_z_refs)):
        v = _check_canonical(res, ln_ref, beta, _recursion(stat, k, n))
        if v.ln_z_err is not None:
            worst = max(worst, v.ln_z_err)
        if not v.ok:
            return Verdict(False, f"N = {n}: {v.why}", worst, v.defects)
        ln_terms.append(n * beta * mu + json.loads(res.out)["ln_Z"])
    total = refs.log_sum_exp(ln_terms)
    want = ln_xi_ref if stat == "fd" else refs.log_sum_exp(
        n * beta * mu + v for n, v in enumerate(ln_z_refs))
    if abs(total - want) > 1e-10 * max(1.0, abs(want)):
        return Verdict(False, f"ln sum z^N Z_N = {total}, reference {want}", worst)
    return Verdict(True, ln_z_err=worst)


def extensivity_task(stat, temp, cutoff, sizes) -> Task:
    argv = ["extensivity", "--stat", stat, "--T", repr(temp), "--discrete", "--box1d", str(cutoff),
            "--sizes", ",".join(f"{v!r}:{n}" for v, n in sizes), "--output", "json"]
    beta = 1.0 / temp
    rows = [
        (refs.canonical_ln_Z(refs.box1d_levels(cutoff, v), n, beta, stat),
         refs.canonical_ln_Z(refs.box1d_levels(cutoff, v / n), 1, beta, stat))
        for v, n in sizes]
    return Task(
        name=_name(argv),
        run=lambda: run_cli(argv),
        check=lambda res: _check_extensivity(res, rows, sizes, temp),
        digest=cli_digest,
        props={"class": "extensivity", "canonical": True,
               "levels_x_n": sum(cutoff * (n + 1) for _, n in sizes),
               "work": max(states(stat if stat == "fd" else "be", cutoff, n) for _, n in sizes),
               "regime": "enumeration", "high_ground": False},
    )


def _check_extensivity(res, rows, sizes, temp) -> Verdict:
    data = expect_json(res)
    if isinstance(data, Verdict):
        return data
    if len(data["rows"]) != len(sizes):
        return Verdict(False, "row count")
    worst = 0.0
    for row, (ln_ref, ln_one), (_, n) in zip(data["rows"], rows, sizes):
        err = abs(row["ln_Z"] - ln_ref)
        worst = max(worst, err)
        if err > LN_Z_TOL:
            return Verdict(False, f"N = {n}: ln Z = {row['ln_Z']}, reference {ln_ref}", worst)
        defect = -temp * ln_ref + n * temp * ln_one
        if not close(row["extensivity_defect"], defect, 1e-9, 1e-9 * temp * (abs(ln_ref) + n * abs(ln_one) + 1)):
            return Verdict(False, f"N = {n}: defect {row['extensivity_defect']}, reference {defect}", worst)
    return Verdict(True, ln_z_err=worst)


def continuum_task(stat, temp, volume, n) -> Task:
    argv = ["partition", "--stat", stat, "--continuum", "--V", repr(volume), "--N", str(n),
            "--T", repr(temp), "--output", "json"]

    def check(res) -> Verdict:
        data = expect_json(res)
        if isinstance(data, Verdict):
            return data
        ln_ref = refs.mb_continuum_ln_Z(temp, volume, n, stat)
        lam = 1.0 / math.sqrt(2.0 * math.pi * temp)
        if not close(data["ln_Z"], ln_ref, 1e-12, 1e-12) or not close(data["thermal_wavelength"], lam, 1e-14):
            return Verdict(False, f"ln Z = {data['ln_Z']}, reference {ln_ref}")
        return Verdict(True)

    return Task(name=_name(argv), run=lambda: run_cli(argv), check=check, digest=cli_digest,
                props={"class": "continuum", "work": 1, "regime": "closed-form", "high_ground": False})


def _name(argv) -> str:
    text = " ".join(argv).replace(" --output json", "")
    return text if len(text) <= 160 else text[:157] + "..."


# -- thermo-enum --------------------------------------------------------------

# (label, tasks per deck, statistics, band on enum_cost).  The bands are
# narrow and the largest classes put the 90th percentile inside `large` and
# the median inside `medium`, so neither lands on a step between classes.
ENUM_CLASSES = [
    ("cap", 1, ("be",), None),
    ("large", 12, ("be",), (900_000, 1_000_000)),
    ("medium", 30, ("be", "fd"), (55_000, 65_000)),
    ("small", 10, ("be", "fd"), (2_000, 10_000)),
]


def enum_cost(stat: str, k: int, n: int) -> int:
    """Relative enumeration cost: per state a fixed part and a part that
    grows with N, as measured on the seed commit."""
    return states(stat, k, n) * (11 + n)
KINDS = ("dimensionless", "box1d", "box3d", "levels")


def generate_enum(seed: int) -> list[Task]:
    rng = random.Random(f"thermo-enum:{seed}")
    tasks = []
    for label, count, stats, band in ENUM_CLASSES:
        for i in range(count):
            stat = stats[i % len(stats)]
            if band is None:
                k, n = 16, 8
            else:
                k, n = _pick(rng, [
                    (k, n) for k in range(2, ENUM_MAX_K + 1) for n in range(2, ENUM_MAX_N + 1)
                    if (stat == "be" or n <= k) and band[0] <= enum_cost(stat, k, n) <= band[1]])
            # Only the high-ground class below may underflow, so the number of
            # Z-underflow inputs is the same for every seed.
            for _ in range(100):
                spectrum = _spectrum(rng, KINDS[(i + len(tasks)) % 4], k)
                beta = _beta(rng, spectrum[2])
                ln_ref = refs.canonical_ln_Z(spectrum[1], n, beta, stat)
                if ln_ref > -700:
                    break
            tasks.append(canonical_task(stat, n, spectrum, beta, label, states(stat, k, n), ln_ref))
    # ground level far above 1/beta: half underflow the unshifted weights
    for i in range(8):
        stat = "be" if i % 2 == 0 else "fd"
        k, n = _pick(rng, [(k, n) for k in range(2, 13) for n in range(2, 9)
                           if (stat == "be" or n <= k) and 2_000 <= enum_cost(stat, k, n) <= 10_000])
        spectrum = _spectrum(rng, "levels", k)
        beta = _beta(rng, spectrum[2], 0.05, 2.0)
        lo, hi = (800 / n, 2000 / n) if i < 4 else (20.0, min(60.0, 500 / n))
        spectrum = _raised(spectrum, round(rng.uniform(lo, hi) / beta, 6))
        tasks.append(canonical_task(stat, n, spectrum, beta, "high-ground", states(stat, k, n)))
    for stat in ("be", "fd", "mb-nn", "mb-fact"):
        cutoff = rng.randint(6, 12)
        sizes = []
        for _ in range(rng.randint(2, 3)):
            n = rng.randint(2, min(6, cutoff))
            sizes.append((round(rng.uniform(0.5, 4.0) * n, 3), n))
        tasks.append(extensivity_task(stat, float(f"{rng.uniform(0.5, 20.0):.4g}"), cutoff, sizes))
    for i, stat in enumerate(("mb-nn", "mb-fact")):
        k = rng.randint(2, 20)
        spectrum = _spectrum(rng, KINDS[i], k)
        n = rng.randint(2, 50)
        tasks.append(canonical_task(stat, n, spectrum, _beta(rng, spectrum[2]), "closed-form", 1))
    for stat in ("mb-nn", "mb-fact"):
        tasks.append(continuum_task(stat, float(f"{rng.uniform(0.1, 50):.4g}"),
                                    float(f"{rng.uniform(0.5, 1e3):.5g}"), rng.randint(1, 10_000)))
    rng.shuffle(tasks)
    return tasks


# -- thermo-wide ----------------------------------------------------------------

# (label, tasks per statistics kind, K*N band).  `big` and the fugacity series
# hold the 90th percentile and `mid` the median.
WIDE_CLASSES = [
    ("big", 3, (280_000, 320_000)),
    ("mid", 15, (12_000, 16_000)),
    ("small", 4, (100, 2_000)),
]


def recursion_misses(energies, n: int, beta: float, ln_ref: float) -> bool:
    """Whether the Fermi-Dirac recursion the CLI uses beyond its enumeration
    caps, Z_N = (1/N) sum_k (-1)^(k+1) z(k beta) Z_(N-k), misses `ln_ref` by
    more than LN_Z_TOL in float64.  It repeats that route's float operations
    only to sort inputs, so every seed holds the same number of Fermi-Dirac
    tasks on each side of the known sign-cancellation defect."""
    z = [0.0] + [math.fsum(math.exp(-(j * beta) * e) for e in energies) for j in range(1, n + 1)]
    zn = [1.0] + [0.0] * n
    for m in range(1, n + 1):
        acc = 0.0
        for j in range(1, m + 1):
            acc += ((-1.0) ** (j + 1)) * z[j] * zn[m - j]
        zn[m] = acc / m
    return not (zn[n] > 0 and abs(math.log(zn[n]) - ln_ref) <= LN_Z_TOL)


def _fd_wide_task(rng, label, band, kind, misses: bool) -> Task:
    for _ in range(200):
        k, n = _wide_size(rng, "fd", band)
        spectrum = _spectrum(rng, kind, k)
        beta = _beta(rng, spectrum[2], 0.002, 5.0)
        ln_ref = refs.canonical_ln_Z(spectrum[1], n, beta, "fd")
        if ln_ref > -700 and recursion_misses(spectrum[1], n, beta, ln_ref) == misses:
            return canonical_task("fd", n, spectrum, beta, label, k * n, ln_ref, misses)
    raise ValueError(f"no {label} Fermi-Dirac task with misses={misses}")


def _wide_size(rng, stat, band):
    while True:
        n = rng.randint(2, 50)
        k_lo = max(1, math.ceil(band[0] / n), n if stat == "fd" else 1)
        k_hi = min(10_000, band[1] // n)
        if k_lo > k_hi:
            continue
        k = rng.randint(k_lo, k_hi)
        if n > ENUM_MAX_N or k > ENUM_MAX_K:
            return k, n


def generate_wide(seed: int) -> list[Task]:
    rng = random.Random(f"thermo-wide:{seed}")
    tasks = []
    for label, count, band in WIDE_CLASSES:
        for i in range(count):
            k, n = _wide_size(rng, "be", band)
            spectrum = _spectrum(rng, KINDS[i % 4], k)
            tasks.append(canonical_task("be", n, spectrum, _beta(rng, spectrum[2], 0.002, 5.0), label, k * n))
            # Fermi-Dirac: alternately inputs the recursion gets wrong and right
            tasks.append(_fd_wide_task(rng, label, band, KINDS[i % 4], misses=i % 2 == 0))
    # the sign-cancellation example: prints 1.36e-21 where Z is 6.26e-168
    tasks.append(canonical_task("fd", 10, _spectrum(rng, "dimensionless", 30), 1.0, "fd-example", 300))
    for i in range(4):  # cold, nearly filled Fermi-Dirac
        k = rng.randint(21, 50)
        n = k - rng.randint(0, 3)
        spectrum = _spectrum(rng, KINDS[i], k)
        tasks.append(canonical_task("fd", n, spectrum, _beta(rng, spectrum[2], 1.0, 5.0), "fd-cold-filled", k * n))
    for i in range(12):
        stat = "be" if i % 2 == 0 else "fd"
        k = int(math.exp(rng.uniform(math.log(10), math.log(10_000))))
        spectrum = _spectrum(rng, KINDS[i % 4], k)
        energies, gap = spectrum[1], spectrum[2]
        beta = _beta(rng, gap, 0.002, 5.0)
        if stat == "be":
            y = -math.exp(rng.uniform(math.log(0.01), math.log(3.0)))
        else:  # around the ground level, nearly filled, and past exp overflow
            y = rng.uniform(*((-5.0, 5.0), (20.0, 400.0), (800.0, 5000.0))[(i // 2) % 3])
        mu = energies[0] + y / beta
        tasks.append(grand_task(stat, spectrum, beta, float(f"{mu:.9g}")))
    for i in range(2):
        k = 25
        spectrum = _spectrum(rng, KINDS[i], k)
        beta = _beta(rng, spectrum[2], 0.02, 2.0)
        mu = spectrum[1][0] + rng.uniform(0.0, 30.0) / beta
        tasks.append(fugacity_task("fd", spectrum, beta, float(f"{mu:.9g}"), k))
    for i in range(2):
        k = 100
        spectrum = _spectrum(rng, KINDS[i + 2], k)
        beta = _beta(rng, spectrum[2], 0.02, 2.0)
        mu = spectrum[1][0] - rng.uniform(1.0, 3.0) / beta
        tasks.append(fugacity_task("be", spectrum, beta, float(f"{mu:.9g}"), 20))
    rng.shuffle(tasks)
    return tasks


def properties(tasks) -> dict:
    canonical = [t for t in tasks if t.props.get("canonical")]
    regimes = [t.props["regime"] for t in tasks]
    return {
        "tasks_per_pass": len(tasks),
        "enumeration_share": regimes.count("enumeration") / len(tasks),
        "recursion_share": regimes.count("recursion") / len(tasks),
        "high_ground_share": sum(t.props["high_ground"] for t in tasks) / len(tasks),
        "known_defect_share": sum(bool(t.known) for t in tasks) / len(tasks),
        "known_defect_tasks": {c: sum(c in t.known for t in tasks)
                               for c in sorted({c for t in tasks for c in t.known})},
        "largest_work": max(t.props["work"] for t in tasks),
        "levels_x_n_per_pass": sum(t.props["levels_x_n"] for t in canonical),
        "tasks_by_class": {c: sum(t.props["class"] == c for t in tasks)
                           for c in dict.fromkeys(t.props["class"] for t in tasks)},
    }

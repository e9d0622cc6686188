"""`exact-symmetry`: a library session on exact states.

Each task symmetrizes one level tuple and takes the exact one-body energy,
the occupancy weights and the float box-x expectation of one particle.  The
deck is stratified so every seed has the same number of tasks per (N,
parity, distinct/repeated, multiplicity pattern) cell and per known-defect
class; the seed picks the level labels, their order, the energies, the
particle and the box length.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import refs
from tasks import Task, Verdict, sha

from idstat import observables, symmetry
from idstat.errors import ZeroVectorInput

# The eight N = 3 distinct tasks (with decompose and the classification of a
# mixed basis member) cost about the same and sit in the middle of the latency
# distribution, so the median falls inside one group of similar tasks.  Sym and
# antisym members would cost half as much and put a step at the median; the
# classification of the symmetrized state covers those tags instead.
TASKS_PER_N = {3: 16, 4: 12, 5: 8, 6: 6, 7: 4, 8: 2}
REPEAT_PATTERNS = {
    3: [(2, 1), (3,)],
    4: [(2, 1, 1), (2, 2), (3, 1)],
    5: [(2, 1, 1, 1), (2, 2, 1), (3, 1, 1)],
    6: [(2, 1, 1, 1, 1), (2, 2, 1, 1)],
    7: [(2, 1, 1, 1, 1, 1)],
    8: [(3, 3, 2), (2, 1, 1, 1, 1, 1, 1)],
}
MIXED_MEMBERS = {"s1": (1, 1), "s2": (1, 2), "s1p": (2, 1), "s2p": (2, 2)}  # name -> (pair, member)


def _cells():
    """(N, parity, pattern or None for distinct levels, with_dims)."""
    cells = []
    for n, count in TASKS_PER_N.items():
        if n == 8:  # repeated levels only: all 8! permutations, few distinct terms
            cells += [(8, "S", REPEAT_PATTERNS[8][0], False), (8, "A", REPEAT_PATTERNS[8][1], False)]
            continue
        for j in range(count // 2):
            parity = "SA"[j % 2]
            pattern = REPEAT_PATTERNS[n][j % len(REPEAT_PATTERNS[n])]
            dims_distinct = j == 0 and n in (3, 4)
            dims_repeated = j == 0 and n in (3, 4, 5)
            cells.append((n, parity, None, dims_distinct))
            cells.append((n, parity, pattern, dims_repeated))
    return cells


def _levels(rng, n, pattern):
    """Seeded levels from 0..n+2 that always use level n+2, so every task
    acts on n+3 box levels."""
    groups = pattern or (1,) * n
    values = rng.sample(range(n + 2), len(groups) - 1) + [n + 2]
    rng.shuffle(values)
    levels = [v for v, m in zip(values, groups) for _ in range(m)]
    rng.shuffle(levels)
    return tuple(levels)


def box_asymmetric(length: float, size: int) -> bool:
    """True when the box-x entries (m, n) and (n, m), evaluated as
    -8 L m n / (pi^2 (m^2 - n^2)^2) in that operand order, round to different
    floats, so that box_position_operator's Hermitian check refuses them."""
    for m in range(1, size + 1):
        for n in range(m + 1, size + 1, 2):
            if -8.0 * length * m * n / (math.pi**2 * (m * m - n * n) ** 2) != (
                -8.0 * length * n * m / (math.pi**2 * (n * n - m * m) ** 2)
            ):
                return True
    return False


def _length(rng, size: int, asymmetric: bool) -> float:
    """A seeded box length that does (or does not) hit the rounding defect."""
    for _ in range(1000):
        length = round(rng.uniform(0.5, 3.0), 3)
        if box_asymmetric(length, size) == asymmetric:
            return length
    raise ValueError(f"no box length with asymmetric={asymmetric} for {size} levels")


def _largest_last(rng, levels, last: bool) -> tuple:
    """The distinct `levels` reordered so the largest is (or is not) last."""
    top = max(levels)
    rest = [v for v in levels if v != top]
    rest.insert(len(rest) if last else rng.randrange(len(rest)), top)
    return tuple(rest)


def generate(seed: int) -> list[Task]:
    rng = random.Random(f"exact-symmetry:{seed}")
    tasks = []
    nonzero = mixed = 0
    members = iter(list(MIXED_MEMBERS) * 2)
    for n, parity, pattern, with_dims in _cells():
        levels = _levels(rng, n, pattern)
        size = max(levels) + 1
        known = set()
        # Every other nonzero state gets a box length the box-x rounding
        # defect refuses, so the defect's share is the same for every seed.
        asymmetric = False
        if not (parity == "A" and pattern is not None):
            asymmetric = nonzero % 2 == 0
            nonzero += 1
        if asymmetric:
            known.add("box-hermitian")
        member = next(members) if n == 3 and pattern is None else None
        if member:
            # Every other mixed member is built on levels whose largest is not
            # last, which classify_symmetry tags 'none'; a fixed share again.
            levels = _largest_last(rng, levels, mixed % 2 == 0)
            mixed += 1
            if levels[-1] != max(levels):
                known.add("classify-order")
        energies = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(size)]
        spec = {
            "levels": levels,
            "parity": parity,
            "particle": rng.randrange(n),
            "energies": energies,
            "length": _length(rng, size, asymmetric),
            "member": member,
            "dims": with_dims,
        }
        name = (
            f"symmetrize{list(levels)} {parity} particle {spec['particle']}"
            + (f" +decompose/classify {member}" if member else "")
            + (" +dims" if with_dims else "")
        )
        tasks.append(
            Task(
                name=name,
                run=lambda spec=spec: _run(spec),
                check=lambda ans, spec=spec: _check(spec, ans),
                digest=_digest,
                known=frozenset(known),
                props={"repeated": pattern is not None, "n": n, "work": math.factorial(n)},
            )
        )
    rng.shuffle(tasks)
    return tasks


def _step(out, key, fn):
    """One library call; an exception is recorded as that step's answer."""
    try:
        out[key] = fn()
    except Exception as exc:  # noqa: BLE001 - a refusal where an answer was due
        out[key] = Raised(f"{type(exc).__name__}: {exc}")


class Raised(str):
    pass


def _run(spec):
    levels, particle = spec["levels"], spec["particle"]
    out = {}
    _step(out, "res", lambda: symmetry.symmetrize(levels, spec["parity"]))
    res = out["res"]
    if isinstance(res, Raised):
        return out
    if res.is_zero:
        try:
            observables.occupancy_weights(res.vector, particle)
            out["refused"] = False
        except ZeroVectorInput:
            out["refused"] = True
    else:
        op = observables.OneBodyOperator.diagonal(spec["energies"])
        _step(out, "energy", lambda: observables.one_body_expectation(res.vector, op, particle))
        _step(out, "weights", lambda: observables.occupancy_weights(res.vector, particle))
        _step(out, "x", lambda: observables.one_body_expectation(
            res.vector, observables.box_position_operator(spec["length"], res.vector.basis_size), particle))
    if spec["member"]:
        _step(out, "basis", lambda: symmetry.orbit_basis_n3(levels))
        _step(out, "decomposition", lambda: symmetry.decompose(
            symmetry.product_state_vector(levels), out["basis"]))
        _step(out, "member_class", lambda: symmetry.classify_symmetry(dict(zip(
            symmetry.ORBIT_BASIS_NAMES, out["basis"]))[spec["member"]]))
        _step(out, "state_class", lambda: symmetry.classify_symmetry(res.vector))
    if spec["dims"]:
        _step(out, "dims", lambda: symmetry.symmetric_antisymmetric_dimensions(levels))
    return out


def _radical(value) -> dict:
    return dict(value.items())


def _rational(value, want: Fraction) -> bool:
    return _radical(value) == ({1: want} if want else {})


def _check(spec, ans) -> Verdict:
    """Every step against its closed form.  The two steps a known defect can
    fail, the member's classification and box-x, are judged after all the
    others and both, so a known failure hides no other check; a failure is
    filed under a known class only when its reason is that defect's."""
    for key, value in ans.items():
        if isinstance(value, Raised) and key != "x":
            return Verdict(False, f"{key} raised {value}")
    levels, parity = spec["levels"], spec["parity"]
    repeated = len(set(levels)) < len(levels)
    res = ans["res"]
    terms = res.vector.items()
    if parity == "A" and repeated:
        if not res.is_zero or terms:
            return Verdict(False, "antisymmetrized repeated levels did not cancel")
        if not ans["refused"]:
            return Verdict(False, "weights of the zero vector were not refused")
        return Verdict(True)
    if res.is_zero:
        return Verdict(False, "zero-vector flag on a nonzero state")
    orbit = refs.orbit_size(levels)
    if {s for s, _ in terms} != refs.distinct_orderings(levels) or len(terms) != orbit:
        return Verdict(False, f"support is not the {orbit} distinct orderings")
    norm2 = Fraction(0)
    for state, amp in terms:
        sq = refs.square(amp.items())
        if sq != Fraction(1, orbit):
            return Verdict(False, f"amplitude {amp} at {state} is not +-1/sqrt({orbit})")
        sign = 1 if parity == "S" else refs.parity_sign(levels, state)
        if (amp.items()[0][1] > 0) != (sign > 0):
            return Verdict(False, f"amplitude sign at {state}")
        norm2 += sq
    if norm2 != 1:
        return Verdict(False, f"norm squared {norm2}")
    weights = refs.equal_share_weights(levels, res.vector.basis_size)
    if len(ans["weights"]) != len(weights) or not all(
        _rational(w, want) for w, want in zip(ans["weights"], weights)
    ):
        return Verdict(False, "occupancy weights are not m_k/N")
    if not _rational(ans["energy"], refs.equal_share_energy(levels, spec["energies"])):
        return Verdict(False, f"exact energy {ans['energy']}")
    if spec["member"]:
        verdict = _check_basis(spec, ans)
        if not verdict.ok:
            return verdict
    if spec["dims"] and ans["dims"] != (1, 0 if repeated else 1):
        return Verdict(False, f"dimensions {ans['dims']}")
    problems = []  # (why, known class or None)
    if spec["member"]:
        got = ans["member_class"]
        if (got.tag.value, got.pair, got.member) != ("mixed", *MIXED_MEMBERS[spec["member"]]):
            problems.append((f"classify {spec['member']} on levels {list(levels)} -> {got.tag.value}",
                             "classify-order" if got.tag.value == "none" else None))
    if isinstance(ans["x"], Raised):
        problems.append((f"box-x (L = {spec['length']}) raised {ans['x']}",
                         "box-hermitian" if "not symmetric" in ans["x"] else None))
    elif abs(ans["x"] - spec["length"] / 2) > 1e-10 * spec["length"]:
        problems.append((f"<x> = {ans['x']} != L/2", None))
    if not problems:
        return Verdict(True)
    classes = tuple(c for _, c in problems)
    return Verdict(False, "; ".join(why for why, _ in problems), defects=() if None in classes else classes)


def _check_basis(spec, ans) -> Verdict:
    levels = spec["levels"]
    vectors = [{s: _radical(a) for s, a in b.items()} for b in ans["basis"]]
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            gram = refs.radical_sum(refs.radical_product(a, v[s]) for s, a in u.items() if s in v)
            if gram != ({1: Fraction(1)} if i == j else {}):
                return Verdict(False, f"basis Gram entry ({i},{j}) = {gram}")
    coeffs, residual = ans["decomposition"]
    if not residual.is_zero:
        return Verdict(False, "nonzero decomposition residual")
    for c, v in zip(coeffs, vectors):
        if _radical(c) != v.get(tuple(levels), {}):
            return Verdict(False, f"coefficient {c} is not <b|product>")
    total = refs.radical_sum(refs.radical_product(_radical(c), _radical(c)) for c in coeffs)
    if total != {1: Fraction(1)}:
        return Verdict(False, "coefficients are not a unit vector")
    want = "symmetric" if spec["parity"] == "S" else "antisymmetric"
    if ans["state_class"].tag.value != want:
        return Verdict(False, f"classify symmetrized state -> {ans['state_class']}")
    return Verdict(True)


def _digest(ans) -> str:
    def norm(v):
        if hasattr(v, "items") and hasattr(v, "n_particles"):
            return [(s, a.items()) for s, a in v.items()]
        if hasattr(v, "items") and not isinstance(v, dict):
            return v.items()
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        if hasattr(v, "vector"):
            return (norm(v.vector), norm(v.raw_norm_squared), v.is_zero)
        if hasattr(v, "tag"):
            return (v.tag.value, v.pair, v.member)
        return repr(v)

    return sha(repr(sorted((k, norm(v)) for k, v in ans.items())))


def properties(tasks) -> dict:
    return {
        "tasks_per_pass": len(tasks),
        "repeated_level_share": sum(t.props["repeated"] for t in tasks) / len(tasks),
        "largest_work_n_factorial": max(t.props["work"] for t in tasks),
        "box_defect_share": sum("box-hermitian" in t.known for t in tasks) / len(tasks),
        "classify_order_share": sum("classify-order" in t.known for t in tasks) / len(tasks),
        "tasks_by_n": {n: sum(t.props["n"] == n for t in tasks) for n in TASKS_PER_N},
    }

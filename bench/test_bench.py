"""Tests of the benchmark itself (stdlib unittest).

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import unittest
from dataclasses import replace
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import cli_session  # noqa: E402
import exact_symmetry  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import thermo  # noqa: E402
from tasks import CliResult  # noqa: E402
from tracer import Tracer  # noqa: E402

from idstat import statmech, symmetry  # noqa: E402
from idstat.exactnum import RadicalRational  # noqa: E402


def _decks(seed):
    session = cli_session.Session(run.ROOT, run.OUT)
    return {
        "exact-symmetry": exact_symmetry.generate(seed),
        "thermo-enum": thermo.generate_enum(seed),
        "thermo-wide": thermo.generate_wide(seed),
        "cli-session": cli_session.generate(seed, session),
    }


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first, again, other = _decks(3), _decks(3), _decks(4)
        for name in first:
            names = [t.name for t in first[name]]
            self.assertEqual(names, [t.name for t in again[name]], name)
            self.assertEqual([t.props for t in first[name]], [t.props for t in again[name]], name)
            self.assertNotEqual(names, [t.name for t in other[name]], name)

    def test_shares_do_not_depend_on_seed(self):
        for seed in (1, 2):
            decks = _decks(seed)
            props = exact_symmetry.properties(decks["exact-symmetry"])
            self.assertEqual(props["box_defect_share"], 18 / 48)
            self.assertEqual(props["classify_order_share"], 4 / 48)
            self.assertEqual(sum(bool(t.known) for t in decks["thermo-enum"]), 4)
            self.assertEqual(sum(bool(t.known) for t in decks["cli-session"]), 5)
            fd = [t for t in decks["thermo-wide"]
                  if " fd " in t.name and t.props["class"] in ("big", "mid", "small")]
            self.assertEqual(sum("fd-recursion" in t.known for t in fd),
                             sum((count + 1) // 2 for _, count, _ in thermo.WIDE_CLASSES))


class ReferenceTests(unittest.TestCase):
    def test_bose_three_levels_two_particles(self):
        e = math.exp
        hand = 1 + e(-1) + 2 * e(-2) + e(-3) + e(-4)  # monomials of degree 2 in 1, e^-1, e^-2
        self.assertAlmostEqual(refs.canonical_ln_Z([0.0, 1.0, 2.0], 2, 1.0, "be"), math.log(hand), places=14)
        self.assertAlmostEqual(refs.canonical_ln_Z([5.0, 6.0, 7.0], 2, 1.0, "be"), math.log(hand) - 10, places=12)

    def test_fermi_thirty_levels_ten_particles(self):
        # e_10 of x_k = exp(-(k^2 - 1)), dominated by the ten lowest levels:
        # Z = exp(-(1 + 4 + ... + 100)) (1 + tiny) = 6.26e-168
        ln_z = refs.canonical_ln_Z(refs.dimensionless_levels(30), 10, 1.0, "fd")
        self.assertAlmostEqual(ln_z, -385.0, delta=1e-6)
        self.assertAlmostEqual(math.exp(ln_z) / 6.26e-168, 1.0, delta=1e-3)

    def test_against_enumeration(self):
        rng = random.Random(7)
        for stat in ("be", "fd"):
            for _ in range(5):
                energies = sorted(round(rng.uniform(0, 3), 3) for _ in range(rng.randint(2, 8)))
                n = rng.randint(1, len(energies) if stat == "fd" else 5)
                beta = rng.uniform(0.1, 3)
                spec = statmech.spectrum_from_levels(energies)
                want = math.log(statmech.canonical_Z(spec, n, beta, statmech.Statistics(stat)))
                self.assertAlmostEqual(refs.canonical_ln_Z(energies, n, beta, stat), want, places=12)

    def test_log_space_matches_exact(self):
        rng = random.Random(11)
        for fermi in (True, False):
            xs = [rng.uniform(0.01, 1) for _ in range(12)]
            exact = refs.exact_coefficients(xs, 6, fermi)
            logs = refs.ln_coefficients([math.log(x) for x in xs], 6, fermi)
            for q, lv in zip(exact, logs):
                self.assertAlmostEqual(refs.ln_fraction(q), lv, places=12)

    def test_grand_softplus_does_not_overflow(self):
        self.assertAlmostEqual(refs.grand_ln_Xi([0.0, 0.001], 1.0, 800.0, "fd"), 1599.999, places=9)
        self.assertAlmostEqual(refs.grand_ln_Xi([0.0], 1.0, -math.log(2), "be"), math.log(2), places=14)

    def test_symmetry_closed_forms(self):
        self.assertEqual(refs.orbit_size((0, 0, 1, 2)), 12)
        self.assertEqual(refs.parity_sign((0, 1, 2), (1, 0, 2)), -1)
        self.assertEqual(refs.equal_share_weights((0, 0, 2), 3), [Fraction(2, 3), 0, Fraction(1, 3)])
        self.assertEqual(cli_session.parse_radical("-1/6*sqrt(6) + 1/2"), {6: Fraction(-1, 6), 1: Fraction(1, 2)})


class TracerTests(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10])
        tracer = Tracer(clock=lambda: next(ticks))
        root = tracer.enter("cli", "cli.main", True)             # 0 .. 10
        a = tracer.enter("statmech", "statmech.canonical_Z", True)  # 1 .. 4
        b = tracer.enter("render", "render.fmt_float", False)     # 2 .. 3
        tracer.exit(b)
        tracer.exit(a)
        c = tracer.enter("statmech", "statmech.grand_ln_Xi", True)  # 5 .. 9
        d = tracer.enter("statmech", "statmech.single_particle_z", True)  # 6 .. 7
        tracer.exit(d)
        tracer.exit(c)
        tracer.exit(root)
        self.assertEqual(tracer.self_s["cli"], 10 - 3 - 4)
        self.assertEqual(tracer.self_s["statmech"], (3 - 1) + (4 - 1) + 1)
        self.assertEqual(tracer.self_s["render"], 1)
        self.assertEqual(tracer.busy["statmech"], 3 + 4)
        self.assertEqual(tracer.calls["statmech"], 3)
        self.assertEqual(len(tracer.spans), 4)  # the counted-only render call keeps no record
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0, 2])

    def test_install_counts_and_uninstall_restores(self):
        original = symmetry.symmetrize
        tracer = Tracer()
        tracer.install()
        try:
            tracer.on = True
            res = symmetry.symmetrize((0, 0, 1), "S")
            tracer.on = False
        finally:
            tracer.uninstall()
        self.assertIs(symmetry.symmetrize, original)
        self.assertEqual(len(res.vector), 3)
        self.assertEqual(tracer.counters["perm.perms_yielded"], 6)
        self.assertEqual(tracer.counters["symmetry.orbit_terms"], 3)
        self.assertGreater(tracer.counters["exactnum.mul_calls"], 0)
        self.assertGreater(tracer.calls["perm"], 0)


class HostSpeedTests(unittest.TestCase):
    def test_same_work_reads_the_same_on_a_slower_host(self):
        latencies, setup, loop = [0.002, 0.003, 0.005] * 40, [0.15, 0.16, 0.17], 0.0008
        fast = run.timings(latencies, 100, setup, run.LOOP_S / loop)
        slow = run.timings([1.4 * x for x in latencies], 100, setup, run.LOOP_S / (1.4 * loop))
        for name, value in fast.items():
            self.assertAlmostEqual(slow[name] / value, 1.0, places=12, msg=name)
        self.assertAlmostEqual(fast["task_p50_ms"], 3.0 * run.LOOP_S / loop, places=9)
        self.assertEqual(fast["setup_s"], 0.16)  # fresh processes are reported as measured

    def test_reference_loop_calls_no_idstat(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.on = True
            self.assertGreater(run.reference_loop(), 0.0)
            tracer.on = False
        finally:
            tracer.uninstall()
        self.assertEqual(sum(tracer.calls.values()), 0)


class NegativeControlTests(unittest.TestCase):
    def test_wrong_answer_raises_fail_rate(self):
        tasks = [t for t in thermo.generate_enum(5) if not t.known and "-N" in t.name][:3]
        honest, tampered = run.Pass(), run.Pass()
        run.run_deck(tasks, honest)

        def shifted(task):
            res = task.run()
            data = json.loads(res.out)
            data["ln_Z"] += 1e-6
            return CliResult(res.rc, json.dumps(data), res.err, res.traceback)

        wrong = [replace(tasks[0], run=lambda: shifted(tasks[0]))] + tasks[1:]
        run.run_deck(wrong, tampered)
        self.assertEqual(honest.n_failed, 0)
        self.assertEqual(tampered.n_failed, 1)
        self.assertEqual(tampered.unexpected, {0})

    def test_wrong_step_on_a_known_defect_task_is_unexpected(self):
        task = next(t for t in exact_symmetry.generate(5)
                    if t.known == {"box-hermitian"} and "+" not in t.name and " S " in t.name)
        honest, tampered = run.Pass(), run.Pass()
        run.run_deck([task], honest)
        self.assertEqual(honest.classes, {0: "box-hermitian"})  # box-x refused, nothing else wrong

        def wrong_energy():
            ans = task.run()
            ans["energy"] = ans["energy"] + RadicalRational.of(1)
            return ans

        run.run_deck([replace(task, run=wrong_energy)], tampered)
        self.assertEqual(tampered.unexpected, {0})

    def test_known_classes_match_their_reasons(self):
        deck = exact_symmetry.generate(5)
        order = [t for t in deck if "classify-order" in t.known]
        result = run.Pass()
        run.run_deck(order, result)
        self.assertEqual(len(order), 4)
        self.assertFalse(result.unexpected)
        self.assertTrue(all("classify-order" in c for c in result.classes.values()))
        right = [t for t in deck if "+decompose" in t.name and not t.known]
        run.run_deck(right, result)
        self.assertEqual(len(result.failed), len(order))

        spec = (["--dimensionless", "30"], refs.dimensionless_levels(30), 3.0)
        wrong = thermo.canonical_task("fd", 10, spec, 1.0, "hand", 300)
        self.assertEqual(wrong.known, {"fd-recursion"})
        self.assertEqual(run_one(wrong).classes, {0: "fd-recursion"})
        hot = thermo.canonical_task("fd", 13, spec, 0.001, "hand", 390)
        self.assertEqual(hot.known, frozenset())
        self.assertEqual(run_one(hot).n_failed, 0)
        be = thermo.canonical_task("be", 10, spec, 1.0, "hand", 300)
        tampered = run.Pass()
        run.run_deck([replace(be, run=lambda: shifted_ln_z(be.run()))], tampered)
        self.assertEqual(tampered.unexpected, {0})  # a miss outside the FD recursion

    def test_answer_where_refusal_was_due(self):
        deck = cli_session.generate(1, cli_session.Session(run.ROOT, run.OUT))
        task = next(t for t in deck if "--T inf" in t.name)
        self.assertFalse(task.check(CliResult(0, "ln_Z = 1.0\n", "", False)).ok)
        self.assertTrue(task.check(CliResult(2, "", "error: T must be finite\n", False)).ok)


def run_one(task):
    result = run.Pass()
    run.run_deck([task], result)
    return result


def shifted_ln_z(res):
    data = json.loads(res.out)
    data["ln_Z"] += 1e-6
    return CliResult(res.rc, json.dumps(data), res.err, res.traceback)


if __name__ == "__main__":
    unittest.main()

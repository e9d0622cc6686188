"""idstat benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload exact-symmetry --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

With --trace 0 the run repeats the seeded task deck in a closed loop (one
client) until --seconds have passed and at least 100 latencies are taken,
times a fixed reference loop after every task, and reports the end-to-end
metrics with timings corrected for the host's speed (see reference_loop).  With --trace 1 it runs the deck once to
warm up, once untraced and once with every idstat layer wrapped, checks that both give the
same answers and failures, and reports the per-layer metrics.  The last line
of stdout is one JSON object; `--workload all` runs every workload both ways
in fresh interpreters and prints one table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tasks import KNOWN_DEFECTS, Verdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("exact-symmetry", "thermo-enum", "thermo-wide", "cli-session")
E2E_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms", "fail_rate": "ratio",
             "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_SAMPLES = 100  # the 90th percentile then has at least 10 samples above it
SETUP_STARTS = 9
DEADLINE_S = 150.0  # stop starting passes here so a run ends well within 180 s
LOOP_S = 1e-3  # in-process task timings are reported as on a host where reference_loop() takes this long
SETUP_CHILD = (
    "import time\nstart = time.perf_counter()\nimport idstat, idstat.cli\n"
    "print(time.perf_counter() - start)"
)


def run_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; checkouts
    that are not git repositories report 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def fresh_start() -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports idstat and idstat.cli,
    and the import time it measured inside itself."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=60, check=True)
    return time.perf_counter() - start, float(proc.stdout)


def fresh_starts(n: int) -> tuple[list[float], list[float]]:
    """fresh_start() n times, after one unmeasured start that warms the
    bytecode caches; (walls, import times)."""
    fresh_start()
    return tuple(map(list, zip(*(fresh_start() for _ in range(n)))))


def reference_loop() -> float:
    """Wall time of a fixed piece of stdlib-only work (build, sort and sum a
    list of 4500 ints), with the garbage collector off so idstat's live
    objects do not add to it.

    The shared host this benchmark was built on changes speed by 20 to 50
    percent over minutes, far more than the bounds allow.  So the timings of
    in-process tasks are multiplied by LOOP_S over the median time of this
    loop, run after every task of the same run: the same work reads about the
    same on a fast and a slow host, while a change to idstat, which the loop
    never calls, shows in full.  Of the loops tried (Fraction sums, float and
    dict updates, JSON rows, recursion, method calls, pointer chasing), this
    one followed the in-process workloads' speed most closely.  None of them,
    and no fresh interpreter either, followed the speed of fresh processes, so
    `cli-session` tasks and set-up starts are reported as measured."""
    gc.disable()
    try:
        start = time.perf_counter()
        values = [(i * 7919) % 1000 for i in range(4500)]
        values.sort()
        sum(values)
        return time.perf_counter() - start
    finally:
        gc.enable()


def timings(latencies: list[float], ok: int, setup_walls: list[float], speed: float) -> dict:
    """The end-to-end timings, the task ones multiplied by `speed`."""
    return {
        "tasks_per_s": ok / (sum(latencies) * speed),
        "task_p50_ms": statistics.median(latencies) * speed * 1e3,
        "task_p90_ms": statistics.quantiles(latencies, n=10)[8] * speed * 1e3,
        "setup_s": statistics.median(setup_walls),
    }


def workload(name: str, seed: int):
    """(tasks, input properties, cli session or None)."""
    if name == "exact-symmetry":
        import exact_symmetry

        tasks = exact_symmetry.generate(seed)
        return tasks, exact_symmetry.properties(tasks), None
    if name in ("thermo-enum", "thermo-wide"):
        import thermo

        tasks = (thermo.generate_enum if name == "thermo-enum" else thermo.generate_wide)(seed)
        return tasks, thermo.properties(tasks), None
    import cli_session

    session = cli_session.Session(ROOT, OUT)
    tasks = cli_session.generate(seed, session)
    return tasks, cli_session.properties(tasks), session


class Pass:
    """Latencies, verdicts and answer digests of one or more deck passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ok = 0
        self.failed: dict[int, str] = {}
        self.classes: dict[int, str] = {}  # failing task -> its known classes, or 'unexpected'
        self.unexpected: set[int] = set()
        self.digests: dict[int, str] = {}
        self.ln_z_err: list[float] = []
        self.exit_codes: list[int] = []
        self.tracebacks = 0

    def record(self, i, task, answer, latency, digest: bool) -> None:
        self.latencies.append(latency)
        try:
            verdict = task.check(answer)
        except Exception as exc:  # noqa: BLE001 - malformed output is a failed task
            verdict = Verdict(False, f"unreadable answer: {type(exc).__name__}: {exc}")
        if verdict.ok:
            self.ok += 1
        else:
            self.failed[i] = verdict.why
            if verdict.defects and set(verdict.defects) <= task.known:
                self.classes[i] = ",".join(verdict.defects)
            else:
                self.classes[i] = "unexpected"
                self.unexpected.add(i)
        if verdict.ln_z_err is not None:
            self.ln_z_err.append(verdict.ln_z_err)
        results = answer if isinstance(answer, list) else [answer]
        for res in results:
            if hasattr(res, "rc"):
                self.exit_codes.append(res.rc)
                self.tracebacks += res.traceback
        if digest:
            self.digests[i] = task.digest(answer)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def n_failed(self) -> int:
        return self.attempted - self.ok


def run_deck(tasks, result: Pass, digest=False, tracer=None, session=None, after_task=None) -> None:
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
            tracer.on = session is None
        if session is not None:
            session.task = i
        start = time.perf_counter()
        answer = task.run()
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.on = False
        result.record(i, task, answer, latency, digest)
        if after_task is not None:
            after_task()


def end_to_end(tasks, session, seconds: float) -> tuple[Pass, dict, dict]:
    """(result, metrics, measured): `measured` holds the timings as the clock
    read them and the host speed factor applied to get `metrics`.  The
    set-up starts are spread over the run, so they see the same host as the
    tasks and the reference loop."""
    fresh_start()  # warms the bytecode caches
    result, setup_walls, reference = Pass(), [], []
    start = time.perf_counter()

    def after_task():
        if session is None:
            reference.append(reference_loop())
        if time.perf_counter() - start >= len(setup_walls) * seconds / SETUP_STARTS:
            setup_walls.append(fresh_start()[0])

    while True:
        run_deck(tasks, result, after_task=after_task)
        elapsed = time.perf_counter() - start
        if elapsed >= DEADLINE_S or (elapsed >= seconds and result.attempted >= MIN_SAMPLES):
            break
    while len(setup_walls) < SETUP_STARTS:
        setup_walls.append(fresh_start()[0])
    speed = LOOP_S / statistics.median(reference) if reference else 1.0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if session else resource.RUSAGE_SELF)
    metrics = timings(result.latencies, result.ok, setup_walls, speed)
    metrics.update({
        "fail_rate": result.n_failed / result.attempted,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    })
    measured = timings(result.latencies, result.ok, setup_walls, 1.0)
    measured["host_speed_factor"] = speed
    return result, metrics, measured


def traced(tasks, session, name: str, seed: int) -> tuple[Pass, dict, bool]:
    from tracer import Tracer

    setup_walls, setup_imports = fresh_starts(3)
    run_deck(tasks, Pass())  # warm-up, so the untraced pass pays no first-call costs
    plain = Pass()
    run_deck(tasks, plain, digest=True)
    tracer = Tracer()
    if session is None:
        tracer.install()
    else:
        session.tracer = tracer
    try:
        result = Pass()
        run_deck(tasks, result, digest=True, tracer=tracer, session=session)
    finally:
        tracer.uninstall()
        if session is not None:
            session.tracer = None
    same = plain.digests == result.digests and plain.failed.keys() == result.failed.keys()
    tracer.write_spans(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))

    c = tracer.counters
    if session is None:
        spawn = statistics.median(w - i for w, i in zip(setup_walls, setup_imports))
    else:
        spawn = statistics.median(session.spawn_s)
    metrics = tracer.layer_metrics()
    metrics.update({
        "exactnum.mul_calls": c["exactnum.mul_calls"],
        "perm.perms_yielded": c["perm.perms_yielded"],
        "symmetry.orbit_terms": c["symmetry.orbit_terms"],
        "symmetry.useful_ratio": (c["symmetry.orbit_terms"] / c["symmetry.symmetrize_perms"]
                                  if c["symmetry.symmetrize_perms"] else 0.0),
        "observables.terms_in": c["observables.terms_in"],
        "statmech.states_yielded": c["statmech.states_yielded"],
        "statmech.levels_x_n": sum(t.props.get("levels_x_n", 0) for t in tasks if t.props.get("canonical")),
        "statmech.max_lnZ_err": max(result.ln_z_err, default=0.0),
        "render.bytes_out": c["render.bytes_out"],
        "cli.import_s": statistics.median(setup_imports),
        "cli.spawn_s": spawn,
        **{f"cli.exit_{k}": result.exit_codes.count(k) for k in range(5)},
        "cli.tracebacks": result.tracebacks,
        "verify.checks_passed": c["verify.checks_passed"],
        "trace.overhead_ratio": sum(result.latencies) / sum(plain.latencies),
    })
    return result, metrics, same


PER_LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "mul_calls": "count",
                   "perms_yielded": "count", "orbit_terms": "count", "useful_ratio": "ratio",
                   "terms_in": "count", "states_yielded": "count", "levels_x_n": "count",
                   "max_lnZ_err": "ln", "bytes_out": "bytes", "import_s": "s", "spawn_s": "s",
                   "tracebacks": "count", "checks_passed": "count", "overhead_ratio": "ratio"}


def unit(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    last = metric.rsplit(".", 1)[-1]
    return "count" if last.startswith("exit_") else PER_LAYER_UNITS[last]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "idstat", "__init__.py")):
        print(f"error: no idstat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    record = run_record()
    tasks, props, session = workload(args.workload, args.seed)
    if args.trace:
        result, metrics, same = traced(tasks, session, args.workload, args.seed)
        measured = {}
    else:
        result, metrics, measured = end_to_end(tasks, session, args.seconds)
        same = True
    correct = same and not result.unexpected

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# run record: " + json.dumps(record))
    print("# inputs: " + json.dumps(props))
    passes = result.attempted // len(tasks)
    print(f"# {result.attempted} tasks in {passes} passes of {len(tasks)}; "
          f"{len(result.failed)} failing inputs per pass, {len(result.unexpected)} outside the known defects")
    if not args.trace:
        above = sum(1 for x in result.latencies if x * 1e3 > measured["task_p90_ms"])
        print(f"# latency samples {result.attempted}, above p90: {above}")
        print("# measured before the host speed correction: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items()))
    if not same:
        print("# traced and untraced passes differ in answers or failures")
    for tag in sorted({t for c in result.classes.values() for t in c.split(",")} - {"unexpected"}):
        print(f"# known defect {tag}: {KNOWN_DEFECTS[tag]}")
    for i, why in sorted(result.failed.items(), key=lambda kv: tasks[kv[0]].name):
        print(f"# FAIL [{result.classes[i]}] {tasks[i].name}: {why}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {unit(name)}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "record": record,
              "inputs": props, "failures": {tasks[i].name: {"class": result.classes[i], "why": why}
                                              for i, why in result.failed.items()},
              "metrics": metrics, "measured": measured}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.n_failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload end to end and traced, each in a fresh interpreter."""
    table = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            table.setdefault(name, {"correct": True})
            table[name]["correct"] &= last["correct"]
            table[name][f"failed_trace{trace}"] = f"{last['failed']}/{last['attempted']}"
            table[name].update(last["metrics"])
    names = list(dict.fromkeys(m for row in table.values() for m in row if isinstance(row[m], dict)))
    print(f"{'metric':32} {'unit':6} " + " ".join(f"{w:>15}" for w in WORKLOADS))
    for key in ("correct", "failed_trace0", "failed_trace1"):
        print(f"{key:32} {'':6} " + " ".join(f"{str(table[w][key]):>15}" for w in WORKLOADS))
    for m in names:
        print(f"{m:32} {table[WORKLOADS[0]][m]['unit']:6} " +
              " ".join(f"{table[w][m]['value']:>15.6g}" for w in WORKLOADS))
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of matlife workflows: time to a fitted model, end to end.

Runs one workload (or all four, each in its own process) through the public
entry point ``matlife.cli.main(argv)``, in process, in a closed loop: one
client, one process, each op starting only after the previous one returned.
Every op's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload em_fit --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
times are in seconds at a reference speed (see ``SpeedProbe``), and the
report prints the wall-clock values beside them.  With ``--trace 1`` every
op runs twice in a row, untraced and then traced, over whole start cycles,
and the run reports the per-layer metrics (see ``tracer.py``) and the
tracing overhead.  The exit code is nonzero when any op fails a
check, when the self-test of the checks fails, or when the package sources
are missing.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

# the kernels work on matrices of order at most 10, where BLAS threads only
# add noise; one thread keeps the run single-threaded and under nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no caches in the checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

DEFAULT_SEED = 1
RECHECK_SEED = 20201106
#: fresh processes whose set-up time makes ``setup_s``
SETUP_REPEATS = 3
#: seconds a set-up process may take before it is killed
SETUP_TIMEOUT_S = 30.0
#: seconds after start at which the loop stops, whatever ``--seconds`` says,
#: so a pathologically slow program still ends the run within three minutes
HARD_STOP_S = 150.0

#: seconds the speed probe takes at the reference speed; every timing in the
#: end-to-end metrics is in seconds at that speed (see SpeedProbe)
PROBE_REF_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "final_objective": "1",
    "peak_rss_mb": "MB",
}
REQUIRED = ("src/matlife/__init__.py", "src/matlife/cli.py", "tests/helpers.py",
            str(wl.MORTALITY_TABLE))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; re-check "
                             f"claims with {RECHECK_SEED})")
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, report readiness on stdout and exit (see setup_times)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, workload) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "workload": workload.name,
        "why": workload.why,
        "input_size": workload.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed, 1 client, 1 process",
        "nproc": os.cpu_count(),
        "blas": vendor,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "speed_probe_ref_s": PROBE_REF_S,
        "git_sha": git_sha(),
    }


class SpeedProbe:
    """Times a fixed kernel to follow the machine's speed from op to op.

    On a shared host the same op runs at speeds 1.5 to 2 times apart,
    switching every few seconds to minutes, so a run's median depends on how
    long it spent at each.  The kernel does the two kinds of work the package
    does, a scipy ``expm`` over a stack of small matrices and a pure-Python
    loop, and slows with them; a wall time multiplied by ``PROBE_REF_S`` over
    the mean probe reading before and after it is that time at the reference
    speed.  The probe runs between ops, never inside one.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import expm

        self._expm = expm
        self._stack = -np.abs(np.random.default_rng(0).normal(size=(150, 5, 5)))
        self.readings: list[float] = []
        self.read()

    def read(self) -> float:
        """Best of three kernel timings, in seconds."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._expm(self._stack)
            total = 0
            for i in range(15000):
                total += i * i
            best = min(best, time.perf_counter() - start)
        self.readings.append(best)
        return best

    def scale(self, wall: float) -> float:
        """``wall`` seconds, just elapsed, at the reference speed."""
        before = self.readings[-1]
        return wall * PROBE_REF_S / ((before + self.read()) / 2)


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, fails: list) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(fails[: max(0, 20 - len(self.messages))])

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Bench:
    def __init__(self, cli, workload, products, probe):
        self.cli, self.w, self.products, self.probe = cli, workload, products, probe
        self.tally = Tally()
        self.objectives: dict[int, float] = {}
        self.last = None

    def run_op(self, k: int, tracer=None):
        """Run op ``k``; returns its output, wall seconds and CLI call count."""
        out = wl.OpOutput(out_dir=self.w.out_dir)
        captured_out, captured_err = io.StringIO(), io.StringIO()
        argvs = self.w.argvs(k % self.w.cycle)
        if tracer is not None:
            tracer.op = k
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured_out), \
                    contextlib.redirect_stderr(captured_err):
                for argv in argvs:
                    out.codes.append(self.cli.main(argv))
                    if out.codes[-1] != 0:
                        break
        except Exception as exc:  # a crashing op is a failed op, not a crash
            out.error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        out.stdout, out.stderr = captured_out.getvalue(), captured_err.getvalue()
        return out, elapsed, len(argvs)

    def judge(self, out, n_calls, products=None):
        """Objective and failed checks of one op's output."""
        fails = []
        if out.error is not None:
            fails.append(out.error)
        elif out.codes != [0] * n_calls:
            fails.append(f"exit codes {out.codes}: {out.stderr.strip()[-200:]}")
        objective = math.nan
        if not fails:
            try:
                objective, more = self.w.check(out, products or self.products)
                fails += more
            except Exception as exc:  # a check that cannot read the output fails the op
                fails.append(f"check raised {type(exc).__name__}: {exc}")
        if not fails and not math.isfinite(objective):
            fails.append(f"objective {objective!r} is not finite")
        return objective, fails

    def op(self, k: int, tracer=None) -> tuple[float, float]:
        """Run and check op ``k``; returns wall and reference-speed seconds."""
        out, elapsed, n_calls = self.run_op(k, tracer)
        objective, fails = self.judge(out, n_calls)
        start = k % self.w.cycle
        if not fails:
            first = self.objectives.setdefault(start, objective)
            if objective != first:
                fails.append(f"start {start} gave objective {objective!r}, "
                             f"earlier {first!r}")
        self.tally.record(fails)
        self.last = (out, n_calls)
        return elapsed, self.probe.scale(elapsed)

    def loop(self, seconds: float, tracer=None):
        """Whole cycles of ops until ``seconds`` passed.

        Starts differ in cost, so stopping inside a cycle would weight some
        of them twice; whole cycles keep the mix, and the per-op counts of a
        traced run, the same from run to run.  With a tracer each start runs
        twice in a row, untraced then traced.  Returns ``(wall, reference)``
        seconds of the untraced and of the traced ops.
        """
        plain, traced = [], []
        start = time.perf_counter()
        k = 1
        while True:
            ran = k - 1
            enough = ran >= self.w.cycle and ran % self.w.cycle == 0
            if (time.perf_counter() - start >= seconds and enough) \
                    or time.perf_counter() - T0 > HARD_STOP_S:
                return plain, traced
            plain.append(self.op(k))
            if tracer is not None:
                traced.append(self.op(k, tracer))
            k += 1

    def full_size_op(self) -> float | None:
        """Run and check the workload's one full-size op, if it has one.

        Returns its wall seconds.  The op counts in ``failed``/``attempted``
        but not in the timings or the objective.
        """
        big = self.w.full_size()
        if big is None:
            return None
        timed, self.w = self.w, big
        try:
            out, elapsed, n_calls = self.run_op(0)
            self.tally.record(self.judge(out, n_calls)[1])
        finally:
            self.w = timed
        return elapsed

    def self_test(self, work: Path) -> list:
        """Damage copies of the last op's output; every copy must be flagged."""
        out, n_calls = self.last
        cases = [(label, edit, None) for label, edit in self.w.corruptions()]

        def nonzero_exit(o):
            o.codes = [3] + o.codes[1:]

        def perturbed(pi, t, z):
            dens, surv = self.products(pi, t, z)
            return dens * (1 + 1e-6), surv

        cases += [("nonzero exit", nonzero_exit, None),
                  ("wrong ph_products", lambda o: None, perturbed)]
        lines = []
        for i, (label, edit, products) in enumerate([("unchanged", lambda o: None, None),
                                                     *cases]):
            copy = wl.copy_output(out, work / f"selftest-{i}")
            edit(copy)
            tally = Tally()
            tally.attempted, tally.failed = self.tally.attempted, self.tally.failed
            tally.record(self.judge(copy, n_calls, products)[1])
            rose = tally.failed_fraction > self.tally.failed_fraction
            ok = rose if label != "unchanged" else not rose
            lines.append((label, ok, tally.failed_fraction))
        return lines


def tail(times):
    """Highest percentile with at least ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - 11, 0) if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def files_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in work.iterdir() if p.is_file()):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def run_one(args) -> int:
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: package sources not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import matlife.cli as cli
    from matlife.phasetype import PHRepresentation, ph_products

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: matlife imported from {cli.__file__}", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("matlife_test_helpers",
                                                  ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    import_s = time.perf_counter() - T0
    probe = SpeedProbe()

    def products(pi, t, z):
        return ph_products(PHRepresentation(pi, t), z)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        workload = wl.WORKLOADS[args.workload](ROOT, work, args.seed,
                                               helpers.taylor_expm)
        bench = Bench(cli, workload, products, probe)
        workload.prepare()
        bench.op(0)  # warm-up, checked like every op
        digest = files_digest(work)
        if args.setup_only:
            print(json.dumps({"ready": bench.tally.failed == 0, "digest": digest,
                              "probe": probe.readings}), flush=True)
            return 0 if bench.tally.failed == 0 else 1
        return measure(args, bench, work, digest,
                       time.perf_counter() - T0 - import_s, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_times(args, probe) -> tuple[list, list, set, list]:
    """Set-up time of fresh processes, from spawn to the first timed op.

    Each process imports the package, makes the inputs and runs and checks
    one warm-up op, exactly as a measuring run does before its first timed
    op, then prints one line and exits; the time is taken when that line
    arrives.  A fresh process pays every one-time cost again: imports made
    at call time, caches filled on first use.  Returns the wall and the
    reference-speed seconds, the input digests and any failures.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    walls, refs, digests, fails = [], [], set(), []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
        timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        finally:
            timer.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        try:
            ready = json.loads(line)
        except json.JSONDecodeError:
            ready = {"ready": False}
        if code != 0 or not ready.get("ready"):
            fails.append(f"set-up process exited {code} without a checked warm-up op")
            continue
        # the speed during the process: readings before and after it here,
        # and the ones the process took after its imports and its op
        readings = [probe.readings[-1], *ready["probe"], probe.read()]
        walls.append(wall)
        refs.append(wall * PROBE_REF_S / statistics.fmean(readings))
        digests.add(ready["digest"])
    return walls, refs, digests, fails


def measure(args, bench, work, digest, own_setup_s, import_s) -> int:
    workload, probe = bench.w, bench.probe
    setup_wall, setup_ref, digests, fails = setup_times(args, probe)
    for message in fails:
        bench.tally.record([message])
    if digests - {digest}:
        bench.tally.record(["the same seed produced different inputs"])
    setup_s = statistics.median(setup_ref) if setup_ref else math.nan
    prov = provenance(args, workload)
    print("provenance " + json.dumps(prov))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = bench.loop(args.seconds, tracer)
    wall = [w for w, _ in plain]
    times = [r for _, r in plain]

    missing = workload.cycle - len(bench.objectives)
    if missing:
        bench.tally.record([f"{missing} of {workload.cycle} starts did not run "
                            f"before the {HARD_STOP_S:.0f} s limit"])
    checks = bench.self_test(work)
    rss_timed = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    full_s = bench.full_size_op()
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": len(times) / sum(times),
        "final_objective": statistics.fmean(bench.objectives.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_ref)} fresh processes, spawn to first "
                   f"timed op (import, inputs, 1 checked warm-up op); wall "
                   + ", ".join(f"{w:.3f}" for w in setup_wall)
                   + f" s; this process: import {import_s:.3f} s + set-up "
                   f"{own_setup_s:.3f} s wall",
        "op_s_p50": f"{len(times)} ops; wall {statistics.median(wall):.4f} s",
        "op_s_tail": f"p{tail_pct:.1f}, {beyond} of {len(times)} ops beyond; "
                     f"wall {tail(wall)[0]:.4f} s",
        "ops_per_s": f"{workload.size}; wall {len(wall) / sum(wall):.4f} 1/s",
        "final_objective": f"mean over {workload.cycle} starts; "
                           + ("mean squared log-mortality error per age"
                              if workload.name == "mortality_fit"
                              else "negative log-likelihood per unit weight"),
        "peak_rss_mb": "peak resident memory of this process" + (
            f", set by one full-size op ({workload.full_size().size}, "
            f"{full_s:.2f} s wall) after the timed loop; {rss_timed:.1f} MB "
            f"before it" if full_s is not None else ""),
    }
    print(f"workload {workload.name}: {workload.why}")
    readings = sorted(probe.readings)
    print(f"  timings in seconds at the reference speed (speed probe "
          f"{PROBE_REF_S * 1e3:.1f} ms); probe read {readings[len(readings) // 2] * 1e3:.2f} ms "
          f"median, {readings[0] * 1e3:.2f} to {readings[-1] * 1e3:.2f} ms")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {END_TO_END[name]:<9} {notes[name]}")
    print(f"  {'failed_fraction':<16} {bench.tally.failed_fraction:>14.6g} "
          f"{'ratio':<9} {bench.tally.failed} of {bench.tally.attempted} ops")
    by_start = [statistics.median(times[i::workload.cycle])
                for i in range(min(workload.cycle, len(times)))]
    print("  op_s by start     " + " ".join(f"{t:.3f}" for t in by_start))
    for label, ok, fraction in checks:
        print(f"  self-test {label}: {'ok' if ok else 'NOT FLAGGED'} "
              f"(failed_fraction would be {fraction:.4g})")
    for message in bench.tally.messages:
        print(f"  failure: {message}", file=sys.stderr)

    report = {name: {"value": value, "unit": END_TO_END[name]}
              for name, value in metrics.items()}
    if tracer is not None:
        traced_wall = sum(w for w, _ in traced)
        layers = tracer.layer_metrics(
            len(traced), statistics.median(r for _, r in traced),
            statistics.median(times), traced_wall)
        from tracer import COMPUTED, PER_LAYER

        print(f"  per layer, per op over {len(traced)} traced ops "
              f"({len(traced) // workload.cycle} whole cycles):")
        for name, value in layers.items():
            note = "  (computed from array sizes)" if name in COMPUTED else ""
            print(f"    {name:<44} {value:>14.6g} {PER_LAYER[name]}{note}")
        print("  inclusive wall seconds per op (children included), share of "
              "traced op time:")
        for name, seconds in sorted(tracer.inclusive().items(),
                                    key=lambda item: -item[1]):
            if seconds >= 0.01 * traced_wall:
                print(f"    {name:<44} {seconds / len(traced):>10.4f} s "
                      f"{seconds / traced_wall:>6.1%}")
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path, prov, T0)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        report = {name: {"value": value, "unit": PER_LAYER[name]}
                  for name, value in layers.items()}

    correct = bench.tally.failed == 0 and all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": bench.tally.attempted,
                      "failed": bench.tally.failed, "metrics": report}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in wl.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=175)
        lines = child.stdout.strip().splitlines()
        if len(lines) > 1:
            print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        code = code or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return child.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

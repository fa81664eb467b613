"""Time-to-verdict benchmark for oplab's decision suites.

    python3 perfbench/run.py --workload {operad,approx,duality,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; oplab is imported from its ``src/``. One
process and one thread, closed loop: each case starts when the previous one
has returned. The seed renames labels and objects and shuffles the cases.

Workloads (see ``workloads.py`` for the cases and their expected anchors):

* ``operad``  check_operad_axioms: assoc at |S|=2 with <=3 edges, lm and rm at
  |S|=2 with <=2 edges and at |S|=1 with <=3 edges. Enumeration and validation
  in ``graphs``; nearly all time is the segal-morphisms whole-count loop.
* ``approx``  check_approximation for {a} at max_dim 3 and {a,b} at max_dim 2,
  plus the 387 exact lift round-trips. Construction and composition in
  ``graphs`` and ``simplex``.
* ``duality`` check_duality_bijection on the four Boolean categories on two
  objects, a Lukasiewicz(2) category, and discrete Boolean categories on 3 and
  4 objects. The ``presheaf`` and ``quantale`` layers; no graph code.
* ``sweep``   the pairing sweep (3468 splice identities, 47524 inert pairs) and
  every CLI verb run in-process through ``oplab.cli.parse_and_dispatch`` on the
  fixtures and on the eight Boolean and Lukasiewicz(3) categories. Many small
  decisions that share little work; the only workload using ``io`` and ``cli``.

The full acceptance criteria 1 and 2 (lm/rm at |S|=2 with 3 edges, {a,b} at
max_dim 3) take 20 s per case, longer than one timed run, so they are left out.

With ``--trace 0`` a run sets up several times (fresh import of oplab plus
building the inputs) and then repeats passes over the cases for ``--seconds``.
It prints ``setup_s`` (median set-up), ``decide_s`` and ``decide_cpu_s``
(median wall and CPU seconds per pass) and ``peak_rss_mb``. These times are in
reference seconds (see ``SpeedProbe``); raw seconds are printed beside them.
With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of ``tracer.py`` (set-up plus the median traced pass, in raw
seconds that include the probe's share of about one percent) and the tracing
overhead (in reference seconds), and writes spans and aggregates to
``.perfbench_out/``.

Every case is checked against its expected verdict and anchor counts. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a case failed and 2 when
the checkout lacks oplab's sources or fixtures, or a measured name is gone.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("graphs", "simplex", "quantale", "presheaf", "enriched", "pointed", "io", "cli")
SETUP_REPEATS = 7

# The untraced run's metrics and their units.
END_TO_END = {"setup_s": "s", "decide_s": "s", "decide_cpu_s": "s", "peak_rss_mb": "MB"}

# The speed probe: a fixed arithmetic loop, timed every PROBE_PERIOD_S while a
# stretch of work is measured. REFERENCE_S is the loop's typical time on the
# machine the benchmark was defined on (2-core Xeon VM, Python 3.11.7).
PROBE_PERIOD_S = 0.02
REFERENCE_S = 150e-6


class LayoutError(Exception):
    """The checkout does not hold what the benchmark measures."""


@dataclass
class Measured:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[tuple[str, str]]
    notes: list[str]


def import_oplab() -> SimpleNamespace:
    """Import oplab afresh from the checkout's ``src/`` and return its modules."""
    if not (SRC / "oplab" / "__init__.py").is_file():
        raise LayoutError(f"no oplab package under {SRC}")
    if not workloads.fixture_dir().is_dir():
        raise LayoutError(f"no fixtures directory at {workloads.fixture_dir()}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "oplab" or n.startswith("oplab.")]:
        del sys.modules[name]
    api = SimpleNamespace(**{m: importlib.import_module(f"oplab.{m}") for m in MODULES})
    if SRC not in Path(api.graphs.__file__).resolve().parents:
        raise LayoutError(f"oplab was imported from {api.graphs.__file__}, not from {SRC}")
    return api


def machine_notes() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            if loose.is_file():
                commit = loose.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "oplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_pass(cases, failures: list, tracer=None) -> None:
    """Run every case once; append (case id, detail) for each case that fails."""
    for case in cases:
        try:
            if tracer is None:
                observed = case.run()
            else:
                with tracer.span("case", case.id):
                    observed = case.run()
        except Exception:
            failures.append((case.id, traceback.format_exc(limit=3)))
            continue
        if observed != case.expected:
            failures.append((case.id, f"observed {observed!r}, expected {case.expected!r}"))


def reference_loop() -> int:
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Rescales measured seconds to a machine running at reference speed.

    On a shared machine every case slows alike when a neighbour loads the
    core, by up to a third over periods of seconds to minutes: more than any
    bound the benchmark may set. While active, the probe interrupts the work
    every PROBE_PERIOD_S (a SIGALRM handler, run between bytecodes) and times
    ``reference_loop``. A stretch's seconds, less the probe's own, times
    REFERENCE_S over the median loop time during that stretch, are its
    reference seconds: on this machine that cuts the run-to-run spread of a
    pass from about a quarter to a few hundredths.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_loop()
        self.walls.append(time.perf_counter() - wall)
        self.cpus.append(time.process_time() - cpu)

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factors(self) -> tuple[float, float]:
        """Reference seconds per measured (wall, cpu) second during the probe's stretch."""
        if not self.walls:  # a stretch shorter than one period
            self._sample()
        return REFERENCE_S / statistics.median(self.walls), REFERENCE_S / statistics.median(self.cpus)


def timed_pass(cases, failures: list, tracer=None, probe: SpeedProbe | None = None) -> tuple[float, float]:
    """Wall and CPU seconds of one pass, less the time the probe spent sampling."""
    gc.collect()
    with probe.active() if probe else nullcontext():
        wall, cpu = time.perf_counter(), time.process_time()
        run_pass(cases, failures, tracer)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if probe:
        wall, cpu = wall - sum(probe.walls), cpu - sum(probe.cpus)
    return wall, cpu


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def measure(args, workdir: Path) -> Measured:
    """Untraced run: repeated set-up, then passes for ``args.seconds``, in reference seconds."""
    setup_probe = SpeedProbe()
    setups = []
    with setup_probe.active():
        for _ in range(SETUP_REPEATS):
            spent = len(setup_probe.walls)
            t0 = time.perf_counter()
            api = import_oplab()
            cases = workloads.build(args.workload, api, args.seed, workdir)
            setups.append(time.perf_counter() - t0 - sum(setup_probe.walls[spent:]))
    failures: list = []
    raw, walls, cpus = [], [], []
    started = time.perf_counter()
    while True:
        probe = SpeedProbe()
        wall, cpu = timed_pass(cases, failures, probe=probe)
        wall_factor, cpu_factor = probe.factors()
        raw.append(wall)
        walls.append(wall * wall_factor)
        cpus.append(cpu * cpu_factor)
        if time.perf_counter() - started + statistics.median(raw) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(setups) * setup_probe.factors()[0],
        "decide_s": statistics.median(walls),
        "decide_cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    notes = [
        f"passes {len(walls)}, cases per pass {len(cases)}, set-ups {len(setups)}",
        f"raw setup_s {statistics.median(setups):.4f} s, decide_s {statistics.median(raw):.4f} s",
    ]
    high = tail(walls)
    notes.append(
        f"decide_s p{high[0]} {high[1]:.4f} s" if high else "decide_s tail: fewer than 20 passes"
    )
    return Measured(metrics, len(walls) * len(cases), failures, notes)


def measure_traced(args, workdir: Path) -> Measured:
    """Traced run: traced set-up, then alternating untraced and traced passes."""
    api = import_oplab()
    setup = tracing.Tracer()
    with setup.installed(api), setup.span("setup"):
        cases = workloads.build(args.workload, api, args.seed, workdir)
    failures: list = []
    plain, traced, tracers = [], [], []
    started = time.perf_counter()
    elapsed = []
    while True:
        probe = SpeedProbe()
        wall = timed_pass(cases, failures, probe=probe)[0]
        plain.append(wall * probe.factors()[0])
        t, probe = tracing.Tracer(), SpeedProbe()
        with t.installed(api):
            traced_wall = timed_pass(cases, failures, t, probe)[0]
        traced.append(traced_wall * probe.factors()[0])
        tracers.append(t)
        elapsed.append(wall + traced_wall)
        if time.perf_counter() - started + statistics.median(elapsed) > args.seconds:
            break
    setup_stats = tracing.raw_stats(setup)
    samples = [tracing.raw_stats(t) for t in tracers]
    counts = (".calls", ".failed", ".returned", ".constructed")
    for sample in samples[1:]:
        for key in sample:
            if key.endswith(counts) and sample[key] != samples[0][key]:
                raise RuntimeError(f"{key} differs between traced passes: {sample[key]} vs {samples[0][key]}")
    values = {k: setup_stats[k] + statistics.median(s[k] for s in samples) for k in setup_stats}
    values.update(tracing.derived(values))
    values["trace.decide_s"] = statistics.median(traced)
    values["trace.untraced_decide_s"] = statistics.median(plain)
    values["trace.overhead_s"] = values["trace.decide_s"] - values["trace.untraced_decide_s"]
    units = tracing.metric_units()
    metrics = {k: (values[k], units[k]) for k in units}
    write_trace(args, setup, tracers[0], len(tracers))
    notes = [f"passes {len(plain)} untraced and {len(traced)} traced, cases per pass {len(cases)}"]
    return Measured(metrics, 2 * len(traced) * len(cases), failures, notes)


def write_trace(args, setup, first, passes: int) -> None:
    OUT.mkdir(exist_ok=True)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_notes(),
        "traced_passes": passes,
        "spans": {"setup": setup.spans, "first_pass": first.spans},
        "aggregate_first_pass": [
            {"parent": parent, "name": name, "calls": row[0], "s": row[1], "self_s": row[2]}
            for (parent, name), row in sorted(first.aggregate.items())
        ],
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(payload, indent=1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Time-to-verdict benchmark for oplab's decision suites.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        measured = (measure_traced if args.trace else measure)(args, workdir)
    except (LayoutError, tracing.MetricLost) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, attempted = len(measured.failures), measured.attempted
    for case_id, detail in measured.failures[:5]:
        print(f"perfbench: case {case_id} failed: {detail}", file=sys.stderr)
    print(f"# machine {json.dumps(machine_notes(), sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}: {'; '.join(measured.notes)}")
    print(f"# failed_share {failed / attempted:.6g} (ratio): {failed} of {attempted} cases")
    for name, (value, unit) in measured.metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  ``--seconds`` bounds the whole run: import, warm-up, timed
passes and the set-up probes.  With ``--trace 0`` the run measures the end-to-end metrics
untraced; with ``--trace 1`` it times each layer's public calls from
spans (``tracing.py``) and reports the per-layer metrics, including the
tracing overhead against untraced passes of the same run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the machine fingerprint and the sample counts.  A failed correctness
check sets ``correct`` to false and the exit code to 1.

The end-to-end run expresses its host times at a reference host speed,
sampled while it measures (``hostspeed.py``); the info line carries the
raw figures too.  The traced run scales the pass seconds of its tracing
overhead the same way.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# The modules next to this file that load NumPy (adapter, tracing) are
# imported inside functions: a set-up probe's timer must see the first
# import of the program and its NumPy.

#: BLAS threads, pinned before NumPy loads here or in a set-up probe
BLAS_THREADS = "1"
#: string-hash seed of every run: with a random one per process, the
#: median pass of six sim_deep_queue runs spread by 17-27% (IQR over
#: median), pinned by 10-18% (interleaved trials, 2-CPU Xeon container)
HASH_SEED = "0"

#: fresh interpreters timing set-up per run, one at a time, spread
#: among the timed passes
SETUP_PROBES = 5
#: timed passes per run at least, however long a pass takes
MIN_PASSES = 2

#: end-to-end metric -> unit
UNITS = {
    "setup_s": "s",
    "sim_requests_per_s": "req/s",
    "gen_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p99_s": "s",
    "sim_tbot_p99_s": "s",
    "sim_goodput_tokens_per_s": "tokens/s",
    "sim_ttft_attainment": "fraction",
    "route_quality": "fraction",
    "gen_task_score": "fraction",
}


#: per-layer metric -> (unit, better), beyond each layer's calls,
#: total_s and self_s
LAYER_EXTRAS = {
    "setup.import_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    "setup.inputs_s": ("s", "lower"),
    "serving.scheduler.select_calls": ("count", "lower"),
    "serving.scheduler.victim_calls": ("count", "lower"),
    "engines.pricing_calls_per_decode_step": ("ratio", "lower"),
    "compression.kivi-4.compress_s": ("s", "lower"),
    "compression.gear-4.compress_s": ("s", "lower"),
    "compression.h2o-512.compress_s": ("s", "lower"),
    "compression.stream-512.compress_s": ("s", "lower"),
    "model.transformer.prefill_tokens": ("count", "lower"),
    "model.transformer.decode_tokens": ("count", "lower"),
    "sim.decode_steps": ("count", "lower"),
    "sim.preempts": ("count", "lower"),
    "sim.batch_mean": ("requests", "higher"),
    "sim.queue_wait_p50_s": ("s", "lower"),
    "sim.queue_wait_p99_s": ("s", "lower"),
    "trace.events": ("count", "lower"),
    "trace.bytes": ("B", "lower"),
    "prefix.hit_ratio": ("fraction", "higher"),
    "prefix.cached_token_ratio": ("fraction", "higher"),
    "router.reroutes": ("count", "lower"),
    "router.fallbacks": ("count", "lower"),
    "router.reroute_ratio": ("fraction", "lower"),
    "fleet.scale_actions": ("count", "lower"),
    "fleet.kv_transfers": ("count", "lower"),
    "telemetry.export_bytes": ("B", "lower"),
    "telemetry.export_events_per_s": ("1/s", "higher"),
    "telemetry.load_events_per_s": ("1/s", "higher"),
    "replay.events_per_s": ("1/s", "higher"),
    "replay.exact": ("count", "higher"),
    "mining.anomalies": ("count", "lower"),
    "mining.incidents": ("count", "lower"),
    "tracing.untraced_pass_s": ("s", "lower"),
    "tracing.traced_pass_s": ("s", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics(layers):
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for layer in layers:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.total_s"] = ("s", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update(LAYER_EXTRAS)
    return out


def _import_adapter():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program source at {SRC}: run from a checkout root")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import adapter

    return adapter


def _setup_probe(workload: str, seed: int) -> None:
    """Child mode: time import, build and inputs, and the host speed
    while they ran; print them as JSON."""
    sys.path.insert(0, HERE)
    from hostspeed import HostSpeed, pin

    pin()
    speed = HostSpeed()
    with speed.sampling():
        t0 = time.perf_counter()
        adapter = _import_adapter()
        import_s = time.perf_counter() - t0
        wl = adapter.WORKLOADS[workload](seed, OUT_DIR)
        t1 = time.perf_counter()
    print(json.dumps(dict(import_s=import_s, **wl.setup_s,
                          scale=speed.scale(t0, t1))))


def _probe_setup(workload: str, seed: int) -> dict:
    """Set-up phases of one fresh interpreter, and its host-speed scale."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe_s(probe: dict) -> float:
    """One probe's set-up seconds, unscaled."""
    return probe["import_s"] + probe["build_s"] + probe["inputs_s"]


def _setup_phases(probes, scaled=False) -> dict:
    """Median of each set-up phase, and of the total, over the probes;
    with ``scaled``, each probe at the reference host speed."""
    phases = [
        {k: v * (p["scale"] if scaled else 1.0)
         for k, v in p.items() if k != "scale"}
        for p in probes
    ]
    out = {k: statistics.median(p[k] for p in phases) for k in phases[0]}
    out["total_s"] = statistics.median(sum(p.values()) for p in phases)
    return out


def _fingerprint() -> dict:
    """CPU model, core count, Python, NumPy, BLAS build and threads, and
    the pinned string-hash seed."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "hash_seed": int(HASH_SEED),
    }


def _pass(wl, tracing=contextlib.nullcontext):
    """One pass, its ``fresh()`` objects built, untraced, in a stage of
    their own."""
    t0 = time.perf_counter()
    fresh = wl.fresh()
    built = time.perf_counter() - t0
    with tracing():
        outcome = wl.run(fresh)
    outcome.stages["fresh"] = built
    outcome.window = (t0, time.perf_counter())
    return outcome


class Ledger:
    """Operations attempted and failed over a run's passes.

    Every request a pass submits is an operation; a request the program
    rejects fails, and so does every request of a pass whose
    correctness checks fail.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, outcome, reference=None, label="pass") -> None:
        self.attempted += outcome.requests
        bad = [name for name, ok in outcome.checks if not ok]
        if reference is not None:
            if outcome.digest != reference.digest:
                bad.append("outputs_differ_across_passes")
            if outcome.metrics != reference.metrics:
                bad.append("metrics_differ_across_passes")
        if bad:
            self.failed += outcome.requests
            self.failures.append((label, bad))
        else:
            self.failed += outcome.rejected

    def fail(self, label, what) -> None:
        self.failed += 1
        self.failures.append((label, [what]))

    @property
    def correct(self) -> bool:
        return not self.failures


def _rates(outcomes, wl, speed=None):
    """Simulated requests and tokens per host second over all timed
    passes: total work over total seconds of the stages that did it,
    each pass's seconds scaled to the reference host speed by the
    samples taken during it when ``speed`` is given.

    Not the median pass: the host's speed switches between regimes that
    last seconds to minutes, so a run's median pass lands in one regime
    or the other, while the total averages the time spent in each.
    """
    scales = [speed.scale(*o.window) if speed else 1.0 for o in outcomes]
    sim_s = sum(k * o.stages[s]
                for k, o in zip(scales, outcomes) for s in wl.SIM_STAGES)
    stages = wl.TOKEN_STAGES
    token_s = sum(
        k * (o.seconds if stages is None else sum(o.stages[s] for s in stages))
        for k, o in zip(scales, outcomes)
    )
    return (sum(o.sim_requests for o in outcomes) / sim_s,
            sum(o.tokens for o in outcomes) / token_s)


class Budget:
    """A run's ``--seconds``, counted from the start of the command.

    Steps (timed passes, or pairs of untraced and traced passes) run
    while the next one and the set-up probes still owed fit before the
    deadline, and at least ``min_steps`` of them.  The ``SETUP_PROBES``
    probes are spread over the run: one is due whenever fewer have run
    than the share of the measuring time gone, and those still owed when
    no step fits run at the end.  Each estimate is the wall time of the
    last step or probe, checks and ``fresh()`` included.
    """

    def __init__(self, start, seconds, probe_s):
        self.deadline = start + seconds
        self.probe_s = probe_s
        self.step_s = 0.0

    def run(self, step, probe, step_s, min_steps):
        """Run the steps and the probes; return the probes' results."""
        self.begin = time.perf_counter()
        self.step_s = step_s
        steps, probes = 0, []
        while True:
            now = time.perf_counter()
            owed = SETUP_PROBES - len(probes)
            fits = now + self.step_s + owed * self.probe_s <= self.deadline
            if steps < min_steps or fits:
                gone = (now - self.begin) / max(self.deadline - self.begin, 1e-9)
                if owed and len(probes) < SETUP_PROBES * gone:
                    probes.append(self._timed(probe, "probe_s"))
                else:
                    self._timed(step, "step_s")
                    steps += 1
            elif owed:
                probes.append(self._timed(probe, "probe_s"))
            else:
                return probes

    def _timed(self, fn, estimate):
        t0 = time.perf_counter()
        out = fn()
        setattr(self, estimate, time.perf_counter() - t0)
        return out


def _end_to_end(wl, budget, ledger, probe):
    """Untraced passes and set-up probes, their host times scaled to the
    reference host speed (``hostspeed.py``)."""
    from hostspeed import HostSpeed, pin

    def step():
        with speed.sampling():
            outcome = _pass(wl)
        ledger.add(outcome, warm, label=f"pass {len(timed)}")
        timed.append(outcome)

    pin()
    speed = HostSpeed()
    warm = _pass(wl)
    ledger.add(warm, label="warm-up")
    timed = []
    probes = budget.run(step, probe, warm.seconds, MIN_PASSES)
    setup = _setup_phases(probes, scaled=True)
    sim_rps, tok_ps = _rates(timed, wl, speed)
    metrics = {k: v for k, v in warm.metrics.items() if k in UNITS}
    metrics.update(
        setup_s=setup["total_s"],
        sim_requests_per_s=sim_rps,
        gen_tokens_per_s=tok_ps,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    raw_rps, raw_tps = _rates(timed, wl)
    return metrics, warm, {
        "pass_seconds": [o.seconds for o in timed],
        "pass_scales": [speed.scale(*o.window) for o in timed],
        "setup_seconds": [_probe_s(p) for p in probes],
        "setup_scales": [p["scale"] for p in probes],
        "raw": {"setup_s": _setup_phases(probes)["total_s"],
                "sim_requests_per_s": raw_rps, "gen_tokens_per_s": raw_tps},
    }


def _per_layer(wl, budget, ledger, probe, adapter, workload, seed):
    """Pairs of untraced and traced passes.  Span times are raw; the
    pass seconds of the tracing overhead are scaled to the reference
    host speed, so that the host's drift between the two passes of a
    pair does not read as overhead."""
    from hostspeed import HostSpeed, pin
    from tracing import Tracer

    @contextlib.contextmanager
    def tracing():
        tracer.reset()
        tracer.install(adapter.layer_targets(), adapter.TOKEN_COUNTERS)
        try:
            yield
        finally:
            tracer.uninstall()

    def scaled_pass(tracing=contextlib.nullcontext):
        with speed.sampling():
            outcome = _pass(wl, tracing)
        return outcome, outcome.seconds * speed.scale(*outcome.window)

    def step():
        outcome, seconds = scaled_pass()
        ledger.add(outcome, warm, label=f"untraced pass {len(plain)}")
        plain.append(seconds)
        outcome, seconds = scaled_pass(tracing)
        # tracing must not change behaviour
        ledger.add(outcome, warm, label=f"traced pass {len(traced)}")
        traced.append(seconds)
        rows.append((tracer.layer_totals(), tracer.label_totals(),
                     dict(tracer.tokens), outcome))

    pin()
    speed = HostSpeed()
    warm = _pass(wl)
    ledger.add(warm, label="warm-up")
    tracer = Tracer()
    plain, traced, rows = [], [], []
    probes = budget.run(step, probe, 2 * warm.seconds, min_steps=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"))
    setup = _setup_phases(probes)
    rows = [_layer_row(*row, setup, adapter) for row in rows]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    base = statistics.median(plain)
    metrics.update({
        "tracing.untraced_pass_s": base,
        "tracing.traced_pass_s": statistics.median(traced),
        "tracing.overhead_ratio": statistics.median(traced) / base,
    })
    return metrics, warm, {"traced_pass_seconds_scaled": traced,
                           "untraced_pass_seconds_scaled": plain,
                           "setup_seconds": [_probe_s(p) for p in probes]}


def _layer_row(layers, labels, tokens, outcome, setup, adapter):
    """Per-layer metrics of one traced pass."""
    row = {}
    for layer in adapter.LAYERS:
        if layer == "setup":
            agg = {"calls": float(SETUP_PROBES),
                   "total_s": setup["total_s"], "self_s": setup["total_s"]}
        else:
            agg = layers.get(layer, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        for key, value in agg.items():
            row[f"{layer}.{key}"] = value
    for phase in ("import_s", "build_s", "inputs_s"):
        row[f"setup.{phase}"] = setup[phase]
    row["serving.scheduler.select_calls"] = labels["serving.scheduler.select"]["calls"]
    row["serving.scheduler.victim_calls"] = labels["serving.scheduler.victim"]["calls"]
    steps = outcome.counts["sim.decode_steps"]
    row["engines.pricing_calls_per_decode_step"] = (
        labels["engines.decode_step"]["calls"] / steps if steps else 0.0
    )
    for algo in adapter.COMPRESSOR_ALGOS:
        row[f"compression.{algo}.compress_s"] = labels[f"compression.{algo}"]["total_s"]
    row["model.transformer.prefill_tokens"] = float(
        tokens.get("model.transformer.prefill", 0))
    row["model.transformer.decode_tokens"] = float(
        tokens.get("model.transformer.decode_step", 0))
    for name in adapter.OUTPUT_COUNTS:
        row[name] = float(outcome.counts.get(name, 0.0))
    return row


def _pin_interpreter() -> None:
    """Pin BLAS threads and string hashing; re-executes this script when
    the hash seed differs, since only a fresh interpreter can take it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    _pin_interpreter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    adapter = _import_adapter()
    if args.workload not in adapter.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(adapter.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    # this interpreter's own import and build come first, so every probe
    # finds the bytecode written and the files cached
    wl = adapter.WORKLOADS[args.workload](args.seed, OUT_DIR)
    budget = Budget(start, args.seconds, probe_s=time.perf_counter() - start)
    ledger = Ledger()

    def probe():
        return _probe_setup(args.workload, args.seed)

    if args.trace:
        values, warm, measured = _per_layer(
            wl, budget, ledger, probe, adapter, args.workload, args.seed)
        units = {k: u for k, (u, _) in per_layer_metrics(adapter.LAYERS).items()}
    else:
        values, warm, measured = _end_to_end(wl, budget, ledger, probe)
        units = UNITS
    for name, value in values.items():
        if not math.isfinite(value):
            ledger.fail("metrics", f"{name} is not finite")
    info = {
        "fingerprint": _fingerprint(),
        "samples": {
            "requests": int(warm.metrics["samples.requests"]),
            "tokens": int(warm.metrics["samples.tokens"]),
        },
        "measured": measured,
        "failures": ledger.failures,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())

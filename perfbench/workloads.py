"""The benchmark's four workloads.

Each workload drives the public API from one process and returns a
:class:`RunResult`: end-to-end metrics from an untraced timed sweep,
the operations it attempted and how many failed the output checks,
and — when given a :class:`~tracing.Tracer` — the per-layer numbers of
a separate traced pass over the same seeds.  ``README.md`` in this
directory documents every name.

Shot seeds are ``seed * SEED_STRIDE + i``: the program receives only
these generated seeds.  The timed sweep runs from ``base + 1`` on an
engine whose set-up ran seed ``base``; set-up ``k`` of an in-process
workload runs seed ``base + k`` as its first shot.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import random
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.benchlib.repetition import build_repetition_chain_program
from repro.benchlib.steane import (N_QUBITS as SHOR_QUBITS,
                                   build_shor_syndrome_program,
                                   verification_qubits)
from repro.benchlib.surface import (build_surface_memory_program,
                                    surface_noise_model)
from repro.qcp import QCPConfig, QuAPESystem, ShotEngine, scalar_config
from repro.qcp.shots import ShardOutcomes, merge_shard_outcomes
from repro.qpu import PRNGQPU, PRNGReadout
from repro.qpu.profile import DeviceProfile
from repro.service import workers
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import JobSpec, result_from_payload
from repro.service.server import ServiceHandle

from tracing import LAYERS, Tracer

SEED_STRIDE = 1 << 24
#: The paper's measured six-processor speedup on Shor syndrome
#: measurement (Fig. 11b).
PAPER_SIX_CORE_SPEEDUP = 2.59
#: Verification-failure rate of the paper's FPGA readout method.
SHOR_FAILURE_RATE = 0.25


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: False when a check other than a per-shot comparison failed.
    checks_ok: bool = True
    #: Printed for people; not part of the result line.
    notes: dict = field(default_factory=dict)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def interval_percentiles(intervals: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds.

    Timed sweeps are sized to give at least 100 intervals, so that ten
    lie beyond p90.
    """
    deciles = statistics.quantiles(intervals, n=10)
    return statistics.median(intervals) * 1e3, deciles[8] * 1e3


def mismatched_shots(counts: Counter, total_ns: int,
                     ref_counts: Counter, ref_total_ns: int) -> int:
    """Shots of a histogram that a reference histogram does not match."""
    if counts == ref_counts and total_ns == ref_total_ns:
        return 0
    shots = sum(ref_counts.values())
    matched = sum(min(counts[key], n) for key, n in ref_counts.items())
    return max(1, shots - matched)


def wait_for_children(timeout: float = 60.0) -> None:
    """Block until every process this one started has ended."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.01)


def _probe_step(total: int, step: int) -> int:
    return total + step


def _calls_loop(iterations: int) -> None:
    total, batch = 0, []
    for i in range(iterations):
        total = _probe_step(total, i & 3)
        batch.append((i, total))
        if len(batch) > 100:
            batch = []


def _arith_loop(iterations: int) -> None:
    total = 0
    for i in range(iterations):
        total += i * i


class HostSpeed:
    """Tracks how fast the host runs Python right now.

    The host's speed swings by up to 1.75x, for 0.1 s to several
    seconds at a time, when other machines share its cores; that would
    swamp any change to the program.  So a fixed pure-Python loop is
    timed before each set-up and sweep and every ``EVERY_S`` during it,
    and each measured interval is scaled by the loop's reference time
    over its mean time in the probes just before and just after the
    interval.  Scaled times are what the host would have measured at
    the reference speed; the raw times are printed alongside.

    Two loops exist because slowdowns hit interpreter-bound and
    arithmetic-bound code differently: ``"calls"`` (function calls and
    small allocations) tracks the control stack, ``"arith"`` (integer
    arithmetic) tracks C-level seeding and numpy replay.
    """

    #: Loop name -> (function, iterations, reference time).  The
    #: reference times are those of an undisturbed 2-CPU x86-64 VM with
    #: Python 3.11.
    LOOPS = {"calls": (_calls_loop, 8_000, 1.2e-3),
             "arith": (_arith_loop, 20_000, 1.4e-3)}
    EVERY_S = 0.03

    def __init__(self, loop: str) -> None:
        self._loop, self._iterations, self.reference_s = self.LOOPS[loop]
        self.probes: list[float] = []
        #: Total time spent probing.
        self.spent_s = 0.0
        self._last = float("-inf")

    def probe(self) -> None:
        best = float("inf")
        for _ in range(2):
            began = time.perf_counter()
            self._loop(self._iterations)
            best = min(best, time.perf_counter() - began)
        self.probes.append(best)
        self._last = time.perf_counter()
        self.spent_s += 2 * best

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.probe()

    def mark(self) -> int:
        """The number of probes so far: pass it to :meth:`scale` for an
        interval that ends now."""
        return len(self.probes)

    def scale(self, seconds: float, mark: int) -> float:
        """``seconds`` at the reference speed, for an interval that
        ended after ``mark`` probes.  Needs a probe before the interval;
        the last interval of a timeline needs a closing probe after."""
        before = self.probes[mark - 1]
        after = self.probes[min(mark, len(self.probes) - 1)]
        return seconds * 2 * self.reference_s / (before + after)

    @property
    def slowdown(self) -> float:
        """Median probe time over the reference time."""
        return statistics.median(self.probes) / self.reference_s


@dataclass
class Sweep:
    """A timed run of contiguous ``run_range`` chunks."""

    chunks: list[tuple[int, int, ShardOutcomes]]
    #: Duration of each ``run_range`` call, raw and host-speed scaled.
    intervals: list[float]
    scaled: list[float]
    rss_mb: float

    @property
    def shots(self) -> int:
        return sum(stop - start for start, stop, _ in self.chunks)

    @property
    def total_ns(self) -> int:
        return sum(out.total_ns for _, _, out in self.chunks)


def timed_sweep(engine: ShotEngine, start: int, chunk: int,
                seconds: float, shots: int | None, rss_shots: int,
                host: HostSpeed, set_up, set_ups: int) -> Sweep:
    """Run chunks from seed ``start`` for ``seconds`` (or ``shots``).

    Peak RSS is read once the sweep has run ``rss_shots`` shots, so it
    compares equal amounts of work however fast the sweep runs.
    ``set_up`` is called ``set_ups`` times between chunks, evenly over
    ``seconds`` and outside the timed calls.
    """
    chunks, timed = [], []
    rss = None
    host.probe()
    began = time.perf_counter()
    set_up_every = seconds / (set_ups + 1)
    done_set_ups = 0
    next_seed = start
    while True:
        stop = next_seed + chunk
        if shots is not None:
            stop = min(stop, start + shots)
        called = time.perf_counter()
        out = engine.run_range(next_seed, stop)
        now = time.perf_counter()
        chunks.append((next_seed, stop, out))
        timed.append((now - called, host.mark()))
        next_seed = stop
        if rss is None and next_seed - start >= rss_shots:
            rss = peak_rss_mb()
        if (next_seed - start == shots if shots is not None
                else now - began >= seconds):
            break
        if (done_set_ups < set_ups
                and now - began >= set_up_every * (done_set_ups + 1)):
            set_up()
            done_set_ups += 1
        host.maybe_probe()
    host.probe()
    return Sweep(chunks, [spent for spent, _ in timed],
                 [host.scale(spent, mark) for spent, mark in timed],
                 rss if rss is not None else peak_rss_mb())


# -- in-process workloads ---------------------------------------------------

class EngineWorkload:
    """A workload timed through ``ShotEngine.run_range`` chunks."""

    #: Shots per ``run_range`` call; one call is one partial result.
    chunk = 1
    #: Sweep shots after which ``peak_rss_mb`` is read.
    rss_shots = 1
    #: Timed seeds re-run one by one against the reference.
    shot_checks = 16
    #: Timed chunks re-run whole against the reference.
    chunk_checks = 1
    #: The :class:`HostSpeed` loop that tracks this workload's code.
    probe_loop = "calls"
    #: Set-ups per run; ``setup_s`` is their median.  In-process
    #: workloads spread them over the timed sweep, so that they meet the
    #: same spells of host speed as the sweep does.
    setup_repeats = 24

    def engine(self, traced: Tracer | None = None) -> ShotEngine:
        raise NotImplementedError

    def reference(self, start: int, stop: int) -> ShardOutcomes:
        """The same seeds on an uncached cycle-accurate engine."""
        return self.uncached.run_range(start, stop)

    def run(self, base: int, seconds: float, shots: int | None,
            tracer: Tracer | None) -> RunResult:
        result = RunResult()
        host = HostSpeed(self.probe_loop)
        # Set-up is interpreter-bound on every workload.
        setup_host = HostSpeed("calls")
        setups, raw_setups = [], []

        def set_up() -> tuple[ShotEngine, ShardOutcomes]:
            seed = base + len(setups)
            setup_host.probe()
            began = time.perf_counter()
            engine = self.engine()
            first = engine.run_range(seed, seed + 1)
            raw_setups.append(time.perf_counter() - began)
            mark = setup_host.mark()
            setup_host.probe()
            setups.append(setup_host.scale(raw_setups[-1], mark))
            return engine, first

        engine, first = set_up()
        sweep = timed_sweep(engine, base + 1, self.chunk, seconds,
                            None if shots is None else shots - 1,
                            self.rss_shots, host, set_up,
                            self.setup_repeats - 2)
        timed_ns = first.total_ns + sweep.total_ns
        self.model(result, base, sweep.shots + 1, timed_ns)
        self.check(result, engine, sweep, base)
        while len(setups) < self.setup_repeats:
            set_up()
        p50, p90 = interval_percentiles(sweep.scaled)
        result.metrics = {
            "shots_per_s": (sweep.shots / sum(sweep.scaled), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "shard_p50_ms": (p50, "ms"),
            "shard_p90_ms": (p90, "ms"),
            "peak_rss_mb": (sweep.rss_mb, "MiB"),
        }
        result.attempted = sweep.shots
        result.notes.update(
            shots=sweep.shots, shards=len(sweep.chunks),
            raw_shots_per_s=sweep.shots / sum(sweep.intervals),
            raw_setup_s=statistics.median(raw_setups),
            host_slowdown=host.slowdown)
        if tracer is not None:
            self.trace(result, tracer, base, sweep, host)
        return result

    def model(self, result: RunResult, base: int, shots: int,
              total_ns: int) -> None:
        """Simulated (modelled) figures of the timed seeds."""
        result.notes["sim_ns_per_shot"] = total_ns / shots
        result.notes["sim_speedup_6core"] = 0.0
        result.notes["paper_gap_pct"] = 0.0

    def check(self, result: RunResult, engine: ShotEngine, sweep: Sweep,
              base: int) -> None:
        rng = random.Random(f"perfbench-check-{base}")
        for start, stop, out in rng.sample(
                sweep.chunks, min(self.chunk_checks, len(sweep.chunks))):
            ref = self.reference(start, stop)
            result.failed += mismatched_shots(out.counts, out.total_ns,
                                              ref.counts, ref.total_ns)
        seeds = rng.sample(range(base + 1, base + 1 + sweep.shots),
                           min(self.shot_checks, sweep.shots))
        for seed in seeds:
            got = engine.run_range(seed, seed + 1)
            ref = self.reference(seed, seed + 1)
            result.failed += mismatched_shots(got.counts, got.total_ns,
                                              ref.counts, ref.total_ns)
        result.notes["checked_shots"] = (
            len(seeds) + self.chunk_checks * self.chunk)

    def trace(self, result: RunResult, tracer: Tracer, base: int,
              sweep: Sweep, host: HostSpeed) -> None:
        """Re-run the timed seeds on a fresh engine with spans on.

        The traced wall is the time spent inside the traced calls; the
        host-speed probes between chunks lie outside it.
        """
        host.probe()
        tracer.install()
        try:
            began = time.perf_counter()
            engine = self.engine(traced=tracer)
            engine.run_range(base, base + 1)
            wall = time.perf_counter() - began
            timed = []
            for start, stop, _ in sweep.chunks:
                called = time.perf_counter()
                engine.run_range(start, stop)
                timed.append((time.perf_counter() - called, host.mark()))
                host.maybe_probe()
        finally:
            tracer.uninstall()
        host.probe()
        wall += sum(spent for spent, _ in timed)
        scaled = sum(host.scale(spent, mark) for spent, mark in timed)
        cache = engine.trace_cache
        result.metrics = layer_metrics(
            tracer, traced_wall=wall, overhead=scaled / sum(sweep.scaled),
            shots=sweep.shots + 1,
            cache=(cache_counters(cache) if cache is not None else {}),
            notes=result.notes)


class Chain9qBatched(EngineWorkload):
    chunk = 1024
    rss_shots = 65536
    shot_checks = 64
    probe_loop = "arith"

    def __init__(self) -> None:
        self.program = build_repetition_chain_program(5, rounds=2,
                                                      encode_one=True)
        self.uncached = ShotEngine(self.program, backend="stabilizer",
                                   config=QCPConfig(trace_cache=False))

    def engine(self, traced=None) -> ShotEngine:
        return ShotEngine(self.program, backend="stabilizer")


class Surface5Noisy(EngineWorkload):
    chunk = 2
    rss_shots = 256
    chunk_checks = 2

    def __init__(self) -> None:
        self.program = build_surface_memory_program(5, rounds=2)
        self.uncached = ShotEngine(self.program, backend="stabilizer",
                                   noise=surface_noise_model(),
                                   config=QCPConfig(trace_cache=False))

    def engine(self, traced=None) -> ShotEngine:
        return ShotEngine(self.program, backend="stabilizer",
                          noise=surface_noise_model())


def shor_qpu(seed: int) -> PRNGQPU:
    """The paper's FPGA method: verification qubits fail 25% of reads."""
    readout = PRNGReadout(
        failure_rate=0.0,
        per_qubit={q: SHOR_FAILURE_RATE for q in verification_qubits()},
        seed=seed)
    return PRNGQPU(SHOR_QUBITS, readout)


class Shor37q6Core(EngineWorkload):
    chunk = 2
    rss_shots = 128
    chunk_checks = 2

    def __init__(self) -> None:
        self.program = build_shor_syndrome_program()

    def engine(self, traced=None, processors: int = 6) -> ShotEngine:
        factory = shor_qpu
        if traced is not None:
            factory = traced.wrap("qpu.device.build", shor_qpu)
        return ShotEngine(self.program, config=scalar_config(),
                          n_processors=processors, n_qubits=SHOR_QUBITS,
                          qpu_factory=factory)

    def reference(self, start: int, stop: int) -> ShardOutcomes:
        """Fresh ``QuAPESystem`` per seed, as Fig. 11b's sweep runs it."""
        out = ShardOutcomes(start=start, stop=stop)
        for seed in range(start, stop):
            system = QuAPESystem(program=self.program,
                                 config=scalar_config(), n_processors=6,
                                 qpu=shor_qpu(seed), n_qubits=SHOR_QUBITS)
            execution = system.run()
            system.kernel.run()
            last = {d.qubit: d.value for d in system.results.history}
            out.counts[tuple(sorted(last.items()))] += 1
            out.total_ns += execution.total_ns
        return out

    def model(self, result: RunResult, base: int, shots: int,
              total_ns: int) -> None:
        """One-processor pass over the same seeds, outside the timing."""
        single = self.engine(processors=1).run_range(base, base + shots)
        speedup = single.total_ns / total_ns
        result.notes["sim_ns_per_shot"] = total_ns / shots
        result.notes["sim_speedup_6core"] = speedup
        result.notes["paper_gap_pct"] = (
            abs(speedup - PAPER_SIX_CORE_SPEEDUP)
            / PAPER_SIX_CORE_SPEEDUP * 100)


# -- service workload ---------------------------------------------------------

def dense_profile(n_qubits: int) -> dict:
    """Per-qubit T1/T2 and per-pair ZZ calibration of the 9q chain.

    The same calibration as ``chain_dense_profile`` in
    ``benchmarks/perf_report.py``: its channels are not Pauli, so
    ``backend="auto"`` routes the Clifford chain to the statevector.
    """
    return {
        "name": f"bench-dense-{n_qubits}q",
        "defaults": {"readout": {"p0_given_1": 0.01, "p1_given_0": 0.004},
                     "gates": {"x90": 24, "cz": 64, "measure": 340}},
        "qubits": {str(q): {"t1_us": 60.0 + 5.0 * q, "t2_us": 45.0}
                   for q in range(n_qubits)},
        "couplings": [{"pair": [q, q + 1], "zz_khz": 1800.0 - 150.0 * q}
                      for q in range(n_qubits - 1)],
    }


@dataclass
class Submission:
    """Client-side timeline of one job on a fresh service."""

    began: float        # before the service was constructed
    submitted: float    # before the job was sent
    partials: list[float]
    done: float         # result event received
    event: dict
    #: Scaled time to the first partial, and from each partial to the
    #: next one and then to the result.
    setup_s: float
    scaled: list[float]

    @property
    def raw_setup_s(self) -> float:
        return self.partials[0] - self.began


class Dense9qService(EngineWorkload):
    """One sweep job on a fresh one-worker service, warm artifacts."""

    #: Shots per shard; the job streams one partial per shard.
    chunk = 32
    #: Shards per job at least, so that ten lie beyond p90.
    min_shards = 110
    #: Shots of the untimed pass that fills the artifact directory.
    cold_shots = 1024
    #: Each set-up starts a service, so fewer of them; half run before
    #: the job and half after its checks.
    setup_repeats = 12
    shot_checks = 32

    def __init__(self, out_dir) -> None:
        self.program = build_repetition_chain_program(5, rounds=2,
                                                      encode_one=True)
        self.text = self.program.to_asm()
        self.profile = dense_profile(9)
        self.uncached = self.engine(config=QCPConfig(trace_cache=False))
        out_dir.mkdir(parents=True, exist_ok=True)
        self.artifact_dir = tempfile.mkdtemp(prefix="artifacts-",
                                             dir=out_dir)

    def close(self) -> None:
        shutil.rmtree(self.artifact_dir, ignore_errors=True)

    def engine(self, traced=None, config=None) -> ShotEngine:
        return ShotEngine(self.program, config=config, backend="auto",
                          profile=DeviceProfile.from_dict(self.profile))

    def job(self, base: int, shots: int) -> dict:
        return {"program": self.text, "shots": shots, "seed": base,
                "backend": "auto", "profile": self.profile,
                "shard_shots": self.chunk}

    def submit(self, job: dict, host: HostSpeed) -> Submission:
        """Start a fresh one-worker service and run ``job`` on it.

        The host-speed probe runs in this process between partials,
        while the worker computes the next shard.
        """
        host.probe()
        began = time.perf_counter()
        handle = ServiceHandle.start(n_workers=1,
                                     artifact_cache_dir=self.artifact_dir)
        partials: list[tuple[float, int]] = []

        def on_partial(_event: dict) -> None:
            partials.append((time.perf_counter(), host.mark()))
            host.maybe_probe()

        try:
            client = ServiceClient(handle.host, handle.port)
            submitted = time.perf_counter()
            event = client.submit(job, on_partial=on_partial)
            done = (time.perf_counter(), host.mark())
        finally:
            handle.close()
            wait_for_children()
        host.probe()
        ends = partials[1:] + [done]
        return Submission(
            began, submitted, [at for at, _ in partials], done[0], event,
            setup_s=host.scale(partials[0][0] - began, partials[0][1]),
            scaled=[host.scale(end - start, mark) for (start, _), (end, mark)
                    in zip(partials, ends)])

    def run(self, base: int, seconds: float, shots: int | None,
            tracer: Tracer | None) -> RunResult:
        result = RunResult()
        cold_base = base + SEED_STRIDE // 2
        cold = self.engine(config=QCPConfig(
            artifact_cache_dir=self.artifact_dir))
        began = time.perf_counter()
        cold.run_range(cold_base, cold_base + self.cold_shots)
        rate = self.cold_shots / (time.perf_counter() - began)
        if shots is None:
            shards = max(self.min_shards,
                         round(seconds * rate / self.chunk))
            shots = shards * self.chunk
        host = HostSpeed(self.probe_loop)
        setups = [self.submit(self.job(base, self.chunk), host)
                  for _ in range(self.setup_repeats // 2 - 1)]
        job = self.job(base, shots)
        if tracer is not None:
            tracer.install(layers=("service",))
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        probing = host.spent_s
        try:
            sub = self.submit(job, host)
        except ServiceError as exc:
            result.notes["service_error"] = str(exc)
            result.attempted, result.failed = shots, shots
            result.checks_ok = False
            return result
        finally:
            if tracer is not None:
                tracer.uninstall()
        # The sweep's worker has ended: its CPU time is the shard
        # compute the client waited for.  The probes shared its CPU.
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu_s = (after.ru_utime + after.ru_stime
                        - children.ru_utime - children.ru_stime)
        probing = host.spent_s - probing
        setups.append(sub)
        event = sub.event
        result.attempted = shots
        result.failed += event["retries"] * self.chunk
        peak_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        self.check_service(result, event, base, shots)
        setups += [self.submit(self.job(base, self.chunk), host)
                   for _ in range(self.setup_repeats
                                  - self.setup_repeats // 2)]
        # The last interval ends at the result, not at a partial.
        p50, p90 = interval_percentiles(sub.scaled[:-1])
        result.metrics = {
            "shots_per_s": ((shots - self.chunk) / sum(sub.scaled), "1/s"),
            "setup_s": (statistics.median(s.setup_s for s in setups), "s"),
            "shard_p50_ms": (p50, "ms"),
            "shard_p90_ms": (p90, "ms"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        result.notes.update(
            shots=shots, shards=event["shards"], retries=event["retries"],
            raw_shots_per_s=(shots - self.chunk) / (sub.done
                                                    - sub.partials[0]),
            raw_setup_s=statistics.median(s.raw_setup_s for s in setups),
            host_slowdown=host.slowdown,
            service_overhead_s=(sub.done - sub.submitted - worker_cpu_s
                                - probing))
        if tracer is not None:
            self.trace_service(result, tracer, job, sub, host)
        return result

    def check_service(self, result: RunResult, event: dict, base: int,
                      shots: int) -> None:
        got = result_from_payload(event["result"])
        engine = self.engine()
        ref = merge_shard_outcomes([engine.run_range(base, base + shots)])
        self.reference_result = ref
        result.failed += mismatched_shots(got.counts, got.total_ns,
                                          ref.counts, ref.total_ns)
        result.notes["sim_ns_per_shot"] = got.total_ns / shots
        result.notes["sim_speedup_6core"] = 0.0
        result.notes["paper_gap_pct"] = 0.0
        rng = random.Random(f"perfbench-check-{base}")
        for seed in rng.sample(range(base, base + shots),
                               self.shot_checks):
            got_shot = engine.run_range(seed, seed + 1)
            ref_shot = self.reference(seed, seed + 1)
            result.failed += mismatched_shots(
                got_shot.counts, got_shot.total_ns,
                ref_shot.counts, ref_shot.total_ns)
        result.notes["checked_shots"] = shots + self.shot_checks

    def trace_service(self, result: RunResult, tracer: Tracer, job: dict,
                      sub: Submission, host: HostSpeed) -> None:
        """Run the job's shard plan in-process, untraced then traced.

        The traced pass attributes the worker's compute to layers; the
        untraced pass gives ``trace.overhead``.  Both start from a fresh
        worker engine and the warm artifact directory, as the service's
        worker did, and both must reproduce the service's result.
        """
        spec = JobSpec.from_dict(job)
        plan = workers.plan_shards(spec.shots, spec.shard_shots)
        workers.configure_worker(artifact_cache_dir=self.artifact_dir)
        raw, scaled = [], []
        for traced in (False, True):
            # A distinct engine key makes each pass build its own engine.
            payload = spec.payload()
            payload["engine_key"] += f":traced={traced}"
            shard_results, timed = [], []
            host.probe()
            if traced:
                tracer.install()
            try:
                for span in plan:
                    called = time.perf_counter()
                    shard_results.append(workers.run_shard(payload, *span))
                    timed.append((time.perf_counter() - called, host.mark()))
                    host.maybe_probe()
            finally:
                if traced:
                    tracer.uninstall()
            host.probe()
            raw.append(sum(spent for spent, _ in timed))
            scaled.append(sum(host.scale(spent, mark)
                              for spent, mark in timed))
            merged = merge_shard_outcomes(
                [ShardOutcomes(start=r["start"], stop=r["stop"],
                               counts=r["counts"], total_ns=r["total_ns"])
                 for r in shard_results])
            ref = self.reference_result
            result.failed += mismatched_shots(
                merged.counts, merged.total_ns, ref.counts, ref.total_ns)
        last = shard_results[-1]
        artifact_bytes = sum(path.stat().st_size for path
                             in pathlib.Path(self.artifact_dir).rglob("*")
                             if path.is_file())
        result.metrics = layer_metrics(
            tracer, traced_wall=(sub.done - sub.submitted) + raw[1],
            overhead=scaled[1] / scaled[0], shots=spec.shots,
            cache=last["trace_cache"] or {}, notes=result.notes,
            artifacts=dict(last["artifact_cache"] or {},
                           bytes=artifact_bytes),
            service={"overhead_s": result.notes["service_overhead_s"],
                     "shards": len(plan),
                     "retries": result.notes["retries"]})


# -- per-layer metrics --------------------------------------------------------

def cache_counters(cache) -> dict:
    return {name: getattr(cache, name)
            for name in ("hits", "misses", "resumes", "nodes",
                         "wavefront_splits", "serial_fallbacks",
                         "batched_shots")}


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float,
                  shots: int, cache: dict, notes: dict,
                  artifacts: dict | None = None,
                  service: dict | None = None) -> dict:
    """Every per-layer metric of one traced run."""
    spans = tracer.summary()

    def self_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(prefix: str) -> int:
        return sum(entry["calls"] for name, entry in spans.items()
                   if name.startswith(prefix))

    layers = tracer.layer_self_s()
    events = tracer.events
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    artifacts = artifacts or {}
    service = service or {}
    m = {
        "shots.init_s": (self_s("shots.init"), "s"),
        "shots.self_s": (layers["shots"], "s"),
        "control.self_s": (layers["control"], "s"),
        "control.shots": (calls("control.run"), "count"),
        "control.events": (events, "count"),
        "control.us_per_event": (
            layers["control"] / events * 1e6 if events else 0.0, "us"),
        "sim_ns_per_shot": (notes["sim_ns_per_shot"], "ns"),
        "sim_speedup_6core": (notes["sim_speedup_6core"], "ratio"),
        "paper_gap_pct": (notes["paper_gap_pct"], "%"),
        "qpu.device.self_s": (layers["qpu.device"], "s"),
        "qpu.device.ops": (calls("qpu.device."), "count"),
        "qpu.backend.self_s": (layers["qpu.backend"], "s"),
        "qpu.backend.ops": (calls("qpu.backend."), "count"),
        "tracecache.replay_s": (
            self_s("tracecache.replay", "tracecache.replay_batch"), "s"),
        "tracecache.record_s": (self_s("tracecache.record"), "s"),
        "tracecache.hits": (hits, "count"),
        "tracecache.misses": (misses, "count"),
        "tracecache.resumes": (cache.get("resumes", 0), "count"),
        "tracecache.nodes": (cache.get("nodes", 0), "count"),
        "tracecache.wavefront_splits": (
            cache.get("wavefront_splits", 0), "count"),
        "tracecache.serial_fallbacks": (
            cache.get("serial_fallbacks", 0), "count"),
        "tracecache.hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "tracecache.batched_frac": (
            cache.get("batched_shots", 0) / shots, "ratio"),
        "rng.seed_s": (layers["rng"], "s"),
        "rng.seeds": (calls("rng.seed"), "count"),
        "artifacts.load_s": (self_s("artifacts.load"), "s"),
        "artifacts.save_s": (self_s("artifacts.save"), "s"),
        "artifacts.warm_loads": (artifacts.get("warm_loads", 0), "count"),
        "artifacts.bytes": (artifacts.get("bytes", 0), "B"),
        "service.overhead_s": (service.get("overhead_s", 0.0), "s"),
        "service.shards": (service.get("shards", 0), "count"),
        "service.retries": (service.get("retries", 0), "count"),
        "trace.coverage": (sum(layers.values()) / traced_wall, "ratio"),
        "trace.overhead": (overhead, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (layers[layer] / traced_wall, "ratio")
    return m

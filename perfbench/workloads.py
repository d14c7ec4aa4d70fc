"""The two benchmark workloads: set-up, drivers and correctness gates.

Inputs are generated in set-up from the seed with the program's own
``ReadingGenerator`` and ``build_shard_rounds``; the program then receives
only the generated rounds and queries, through the public ``repro.api``
surface.  Each workload returns a :class:`Result` holding its raw samples,
each stamped with the time it was taken, and the host-speed samples taken
between them (:mod:`hostspeed`); ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.api import ServeHandle, connect, recover, run_workload
from repro.runtime.shards import ShardedWorkload, WorkerSpec, build_shard_rounds
from repro.sensors.catalog import BARCELONA_CATALOG
from repro.sensors.generator import ReadingGenerator

from hostspeed import EVERY_S, HostSpeed
from querymix import QueryMix, answer, answer_digest

ROUND_S = 900.0


@dataclass(frozen=True)
class Params:
    """Size of one workload run."""

    devices_per_type: int
    #: Simulated horizon of ``durable_recover``'s cycles (hours).
    hours: float = 24.0
    #: Cycles of ``durable_recover``; ``None`` runs as many as fit in
    #: ``--seconds`` (at least two).
    cycles: Optional[int] = None
    #: Open-loop round rate of ``serve_live`` (rounds per wall second).
    rounds_per_s: float = 0.0
    #: Closed-loop queries per ``durable_recover`` cycle.  A count, not a
    #: deadline, so every cycle adds the same number of samples.
    queries: int = 0
    #: Seeded queries whose answers the ``durable_recover`` gate compares.
    gate_queries: int = 100
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 5


SIZES: Dict[str, Dict[str, Params]] = {
    "full": {
        "serve_live": Params(devices_per_type=8, rounds_per_s=8.0),
        "durable_recover": Params(devices_per_type=5, hours=24.0, queries=800, setups=15),
    },
    "tiny": {
        "serve_live": Params(devices_per_type=2, rounds_per_s=40.0, setups=2),
        "durable_recover": Params(
            devices_per_type=2, hours=8.0, cycles=2, queries=40, gate_queries=30, setups=2
        ),
    },
}


@dataclass
class Inputs:
    """Everything set-up generated for one run."""

    workload: ShardedWorkload
    rounds: list
    assignment: Dict[str, str]
    mix: QueryMix
    #: Cloud digest of the same workload on ``direct`` (see
    #: :func:`reference_digest`), for the gates.
    reference: Optional[str] = None

    @property
    def readings(self) -> int:
        return sum(len(readings) for _, readings in self.rounds)


@dataclass
class Cycle:
    """Raw samples of one cycle: its ingest rounds, then its queries.

    Every sample keeps the ``perf_counter`` time it started at, so that
    it can be scaled by the host speed measured around it.
    """

    readings: int = 0
    #: Per round: when it was due, the time from then to its sync point
    #: landing in the cloud (freshness), and the time the program spent on
    #: it (busy).
    round_at: List[float] = field(default_factory=list)
    freshness_s: List[float] = field(default_factory=list)
    busy_s: List[float] = field(default_factory=list)
    query_at: List[float] = field(default_factory=list)
    query_latency_s: List[float] = field(default_factory=list)


@dataclass
class Result:
    """Raw samples of one measured run, cycle by cycle."""

    speed: HostSpeed = field(default_factory=HostSpeed)
    cycles: List[Cycle] = field(default_factory=list)
    #: Per open-loop round: how late the generator released it.
    lateness_s: List[float] = field(default_factory=list)
    memo_hits: int = 0
    cloud_bytes: int = 0
    wire_bytes: int = 0
    shed: int = 0
    recover_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: What the gates inspect: the client or serve handle of the current
    #: cycle, and for ``durable_recover`` what that cycle's crashed
    #: deployment held (``digest``, ``health`` and ``answers``).
    deployment: object = None
    before_crash: Optional[dict] = None
    state_dir: Optional[str] = None

    def fail(self) -> None:
        self.failures.append(traceback.format_exc())

    def new_cycle(self) -> Cycle:
        self.cycles.append(Cycle())
        return self.cycles[-1]

    @property
    def readings(self) -> int:
        return sum(cycle.readings for cycle in self.cycles)

    @property
    def ingest_busy_s(self) -> float:
        return sum(sum(cycle.busy_s) for cycle in self.cycles)

    @property
    def query_latency_s(self) -> List[float]:
        return [latency for cycle in self.cycles for latency in cycle.query_latency_s]


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
def setup(workload: ShardedWorkload, tracer=None) -> Inputs:
    """Generate the rounds and the query mix for *workload*."""
    client = connect(transport="direct")
    span = tracer.open("sensors.generate") if tracer else None
    generator = ReadingGenerator(
        BARCELONA_CATALOG, devices_per_type=workload.devices_per_type, seed=workload.seed
    )
    spec = WorkerSpec(shard_index=0, workers=1, workload=workload, catalog=BARCELONA_CATALOG)
    rounds = build_shard_rounds(spec, client.system, generator)
    if span:
        tracer.close(span)
    system = client.system
    sensor_ids = [device.sensor_id for device in generator.all_devices()]
    assignment = {sensor_id: system.section_of_sensor(sensor_id) for sensor_id in sensor_ids}
    mix = QueryMix(
        seed=workload.seed,
        horizon_s=workload.round_count() * ROUND_S,
        sensor_ids=sensor_ids,
        section_ids=[section.section_id for section in system.city.sections],
        categories=sorted({spec.category.value for spec in BARCELONA_CATALOG}),
    )
    return Inputs(workload=workload, rounds=rounds, assignment=assignment, mix=mix)


def deploy(inputs: Inputs, **config):
    """A fresh deployment with the set-up's sensor → section assignment."""
    client = connect(**config)
    for sensor_id, section_id in inputs.assignment.items():
        client.system.assign_sensor(sensor_id, section_id)
    return client


def horizon(params: Params, seed: int, seconds: float, name: str) -> ShardedWorkload:
    """The seeded workload a run ingests (serve_live's spans its measured time)."""
    if name == "serve_live":
        rounds = max(2, int(round(params.rounds_per_s * seconds)))
        duration = rounds * ROUND_S
    else:
        duration = params.hours * 3600.0
    return ShardedWorkload.stream_rounds(
        devices_per_type=params.devices_per_type,
        seed=seed,
        duration_s=duration,
        round_s=ROUND_S,
    )


# ---------------------------------------------------------------------- #
# Drivers
# ---------------------------------------------------------------------- #
def drive_rounds(client, inputs: Inputs, result: Result, cycle: Cycle, tracer=None) -> None:
    """Closed loop: offer each round as soon as the previous one landed.

    A round is due when it is offered, so its freshness is the time to
    acquire it and sync it up to the cloud.  The benchmark then enforces
    each fog node's TTL, as an operator's housekeeping would; its busy time
    includes that.
    """
    system = client.system
    nodes = list(system.fog1_nodes()) + list(system.fog2_nodes())
    plan = inputs.workload.sync_plan
    for index, ((timestamp, readings), (_, sync_time)) in enumerate(zip(inputs.rounds, plan)):
        result.speed.maybe_tick()
        span = tracer.open("bench.round", tag=f"r{index}") if tracer else None
        result.attempted += 1
        start = perf_counter()
        try:
            client.ingest(readings, now=timestamp)
            client.synchronise(now=sync_time)
            landed = perf_counter()
            for node in nodes:
                node.enforce_retention(sync_time)
        except Exception:
            result.fail()
            continue
        finally:
            if span:
                tracer.close(span)
        cycle.round_at.append(start)
        cycle.busy_s.append(perf_counter() - start)
        cycle.freshness_s.append(landed - start)
        cycle.readings += len(readings)


def drive_queries(target, stream, result: Result, cycle: Cycle, count: Optional[int] = None,
                  stop: Optional[threading.Event] = None, tracer=None,
                  speed: Optional[HostSpeed] = None) -> None:
    """Closed loop: send the next query as soon as the previous answer came.

    Stops after *count* queries, or once *stop* is set.  With *speed*,
    samples the host speed between queries.
    """
    sent = 0
    while not (stop.is_set() if stop is not None else sent >= count):
        sent += 1
        query = next(stream)
        if speed is not None:
            speed.maybe_tick()
        span = tracer.open("bench.query", tag=query.id) if tracer else None
        result.attempted += 1
        start = perf_counter()
        try:
            answer(target, query)
        except Exception:
            result.fail()
            continue
        finally:
            if span:
                tracer.close(span)
        cycle.query_latency_s.append(perf_counter() - start)
        cycle.query_at.append(start)


class OpenLoopClock:
    """Serve-loop clock that releases round *i* at ``t0 + i / rate``.

    The serve loop calls :meth:`sleep` before every round.  The schedule
    does not wait for the system: a round that could not start on time
    starts late, its lateness is recorded, and the next round is still due
    at its own time.  Nothing is released until :meth:`arm` fixes ``t0``.
    """

    def __init__(self, rate: float, tracer=None) -> None:
        self.rate = rate
        self.t0 = 0.0
        self.released: List[float] = []
        self._armed = threading.Event()
        self._tracer = tracer
        self.round_span = None

    def arm(self, t0: float) -> None:
        self.t0 = t0
        self._armed.set()

    def due(self, index: int) -> float:
        return self.t0 + index / self.rate

    def sleep(self, _interval: float) -> None:
        self._armed.wait()
        index = len(self.released)
        delay = self.due(index) - perf_counter()
        if delay > 0:
            time.sleep(delay)
        self.released.append(perf_counter())
        if self._tracer:
            self.round_span = self._tracer.open("bench.round", tag=f"r{index}")


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def serve_live(inputs: Inputs, params: Params, seconds: float, tracer=None) -> Result:
    """``serve()`` on ``direct`` with an open-loop round schedule and a live reader.

    The main thread samples the host speed while the rounds land; the serve
    loop and the reader run undisturbed but for those short ticks.
    """
    result = Result()
    cycle = result.new_cycle()
    client = deploy(inputs, transport="direct")
    rounds = len(inputs.rounds)
    clock = OpenLoopClock(params.rounds_per_s, tracer)
    landed: List[float] = []
    all_landed = threading.Event()
    system = client.system
    synchronise = system.synchronise

    def landing(now=None):
        moved = synchronise(now=now)
        landed.append(perf_counter())
        if tracer and clock.round_span is not None:
            tracer.close(clock.round_span)
        if len(landed) == rounds:
            all_landed.set()
        return moved

    def round_lock_acquired(handle, index, readings):
        tracer.record("serve.round_lock_wait", clock.released[index], perf_counter())

    # Landing times are read at the deployment's own sync call, which the
    # serve loop makes once per round with the serve lock held.
    system.synchronise = landing
    timeout = max(60.0, 4 * seconds)
    handle = ServeHandle(
        client,
        workload=inputs.workload,
        rounds=inputs.rounds,
        clock=clock,
        drain_timeout_s=timeout,
        round_hook=round_lock_acquired if tracer else None,
    )
    finished: List[float] = []

    def reader() -> None:
        # One closed-loop client: with two, three busy threads share two
        # cores and the interpreter lock, and runs stopped repeating.
        delay = clock.t0 - perf_counter()
        if delay > 0:
            time.sleep(delay)
        stream = inputs.mix.stream(0, landed=lambda: max(1, len(landed)) * ROUND_S)
        drive_queries(handle, stream, result, cycle, stop=all_landed, tracer=tracer)
        finished.append(perf_counter())

    thread = threading.Thread(target=reader, name="reader")
    clock.arm(perf_counter() + 0.05)
    thread.start()
    give_up = perf_counter() + timeout
    while handle.running and perf_counter() < give_up:
        result.speed.tick()
        all_landed.wait(EVERY_S)
    try:
        drained = handle.drain(timeout=timeout)
    except Exception:
        drained = False
        result.fail()
    all_landed.set()
    thread.join(timeout=60.0)
    result.attempted += rounds
    if not drained:
        result.problems.append("serve loop did not finish its rounds")
    for index, (_, readings) in enumerate(inputs.rounds[: len(landed)]):
        cycle.round_at.append(clock.due(index))
        cycle.freshness_s.append(landed[index] - clock.due(index))
        result.lateness_s.append(clock.released[index] - clock.due(index))
        cycle.busy_s.append(landed[index] - clock.released[index])
        cycle.readings += len(readings)
    result.memo_hits = client.queries.cache_hits
    result.cloud_bytes = client.traffic_report()["cloud"]
    result.deployment = handle
    if thread.is_alive():
        result.problems.append("the reader did not stop")
    elif drained:  # the gate forks, so no other thread may be running
        gate("serve_live", inputs, params, result, 0)
    return result


def durable_recover(inputs: Inputs, params: Params, seconds: float, tracer=None,
                    state_root: str = ".") -> Result:
    """Durable ingest over ``frames-binary-v2``, ``recover()``, then queries, in cycles.

    Each cycle ingests the whole horizon on a fresh deployment that writes
    segment logs for the cloud and fog layer 2, then "crashes": the
    benchmark notes what the gates compare against (cloud digest, loss
    ledger and the answers to the first seeded queries), closes the logs,
    which were committed at every sync point, and drops that deployment.
    It then recovers a new one from the logs, queries it and gates it.
    Recovery ends when the restored deployment has answered its first
    query.  Cycles repeat until ``seconds`` would be overrun (at least
    two), so every phase is spread over the whole run.
    """
    result = Result()
    stream = inputs.mix.stream(0)
    run_start = perf_counter()
    index = 0
    while not enough_cycles(params, index, run_start, seconds):
        close(result)
        result.deployment = None
        gc.collect()
        cycle = result.new_cycle()
        result.state_dir = tempfile.mkdtemp(prefix="durable-", dir=state_root)
        config = dict(transport="frames-binary-v2", durable_dir=result.state_dir,
                      durable_fog2=True)
        try:
            client = deploy(inputs, **config)
            drive_rounds(client, inputs, result, cycle, tracer)
            broker = client.health()["broker"]
            result.wire_bytes = broker["published_bytes"]
            result.shed = broker["shed_messages"]
            result.cloud_bytes = client.traffic_report()["cloud"]
            with tracer.paused() if tracer else contextlib.nullcontext():
                result.before_crash = {
                    "digest": client.cloud_digest(),
                    "health": client.health(),
                    "answers": answer_digests(client, inputs, params),
                }
            client.system.durable.close()
            client = None
            gc.collect()
            first = next(stream)
            result.speed.tick()
            span = tracer.open("bench.recover", tag=f"recover{index}") if tracer else None
            result.attempted += 1
            recover_start = perf_counter()
            try:
                restored = result.deployment = recover(**config)
                answer(restored, first)
            finally:
                if span:
                    tracer.close(span)
            result.recover_s.append(perf_counter() - recover_start)
            drive_queries(restored, stream, result, cycle, params.queries, tracer=tracer,
                          speed=result.speed)
            result.memo_hits += restored.queries.cache_hits
            gate("durable_recover", inputs, params, result, index)
        except Exception:
            result.fail()
            result.deployment = None
            break
        index += 1
    return result


def enough_cycles(params: Params, done: int, run_start: float, seconds: float) -> bool:
    """Whether ``durable_recover`` has run its cycles.

    Without a fixed count, another cycle starts only while one more of the
    average length so far still ends within *seconds*.
    """
    if params.cycles is not None:
        return done >= params.cycles
    if done < 2:
        return False
    elapsed = perf_counter() - run_start
    return elapsed + elapsed / done > seconds


def answer_digests(client, inputs: Inputs, params: Params) -> List[str]:
    """Row digests of the answers to the first seeded queries."""
    stream = inputs.mix.stream(0)
    return [answer_digest(answer(client, next(stream))) for _ in range(params.gate_queries)]


WORKLOADS = {
    "serve_live": serve_live,
    "durable_recover": durable_recover,
}


# ---------------------------------------------------------------------- #
# Correctness gates
# ---------------------------------------------------------------------- #
def reference_digest(workload: ShardedWorkload) -> str:
    """Cloud digest of the same workload run to completion on ``direct``."""
    return run_workload(workload, transport="direct").cloud_digest()


def conservation_problems(health: dict, offered: int) -> List[str]:
    """Where the loss ledger does not close on a lossless, fully synced run."""
    ledger = health["conservation"]
    tiers = ledger["tiers"]
    fog1, fog2, cloud = tiers["fog_layer_1"], tiers["fog_layer_2"], tiers["cloud"]
    problems = []
    if ledger["total_counted_losses"]:
        problems.append(f"counted losses: {ledger['total_counted_losses']}")
    if offered != fog1["ingested_readings"] + fog1["rejected_readings"] + ledger["total_counted_losses"]:
        problems.append(
            f"fog L1 offered {offered} != ingested {fog1['ingested_readings']} "
            f"+ rejected {fog1['rejected_readings']} + losses"
        )
    if not fog1["ingested_readings"] == fog2["ingested_readings"] == cloud["ingested_readings"]:
        problems.append("ingested rows differ between tiers after the last sync")
    for name, tier in tiers.items():
        if tier["pending_upward"]:
            problems.append(f"{name}: {tier['pending_upward']} rows never synced")
        if tier["stored_readings"] != tier["ingested_readings"] - tier["evicted_readings"]:
            problems.append(f"{name}: stored != ingested - evicted")
    return problems


def check(name: str, inputs: Inputs, params: Params, result: Result) -> List[str]:
    """The workload's correctness gates on the current cycle; returns what failed."""
    deployment = result.deployment
    offered = inputs.readings
    if name == "serve_live":
        problems = conservation_problems(deployment.health(), offered)
        if deployment.cloud_digest() != inputs.reference:
            problems.append("cloud digest differs from run_workload(direct)")
        return problems
    before = result.before_crash
    problems = conservation_problems(before["health"], offered)
    if before["digest"] != inputs.reference:
        problems.append("cloud digest differs from run_workload(direct)")
    if deployment.cloud_digest() != before["digest"]:
        problems.append("recovered cloud digest differs from the digest before the crash")
    after = deployment.health()["conservation"]
    if after["total_counted_losses"]:
        problems.append("recovery counted losses (torn log records)")
    rows_before = before["health"]["conservation"]["tiers"]["cloud"]["ingested_readings"]
    if after["tiers"]["cloud"]["ingested_readings"] != rows_before:
        problems.append("recovered cloud rows differ from the rows before the crash")
    if answer_digests(deployment, inputs, params) != before["answers"]:
        problems.append("recovered answers differ from the answers before the crash")
    return problems


def gate(name: str, inputs: Inputs, params: Params, result: Result, cycle: int) -> None:
    """Gate one cycle before its deployment is dropped, in a forked child."""
    try:
        problems = forked(check, name, inputs, params, result)
    except Exception:
        result.fail()
        return
    result.problems += [f"cycle {cycle}: {problem}" for problem in problems]


def forked(func, *args):
    """``func(*args)`` in a forked child; returns its result.

    The child works on a copy of this process, so the benchmark's own
    checks add neither memory (``peak_rss_mb``), collector work nor spans
    to the measured process.  Only call it while no other thread runs.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            payload = pickle.dumps((True, func(*args)))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write, "wb") as out:
            out.write(payload)
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as inp:
        payload = inp.read()
    os.waitpid(pid, 0)
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"in the forked check:\n{value}")
    return value


def close(result: Result) -> None:
    """Stop the serve loop, close durable logs and delete their directory."""
    deployment = result.deployment
    if isinstance(deployment, ServeHandle):
        deployment.shutdown(drain=False)
    elif deployment is not None and deployment.system.durable is not None:
        deployment.system.durable.close()
    if result.state_dir is not None:
        shutil.rmtree(result.state_dir, ignore_errors=True)

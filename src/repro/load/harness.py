"""The load-point harness: one (primitive, traffic) measurement.

:func:`run_load_point` builds a fresh kernel and a transport's server
pool, then drives one of two traffic shapes:

* **open loop** — ``n_clients`` independent seeded arrival processes
  offer requests at a fixed total rate into a bounded
  :class:`repro.load.queueing.RequestQueue`, drained by ``n_conns``
  persistent runner threads (a connection pool: real load generators
  and real servers reuse threads, they do not pay thread setup per
  request). The traffic source never blocks, so the offered rate is
  honoured regardless of how slow the system under test is — overload
  shows up as shed arrivals (policy ``"shed"``) or queueing delay
  (policy ``"block"``), never as a silently reduced offered load.
* **closed loop** — ``n_clients`` persistent client threads issue one
  request at a time with exponential think time, passing through a
  bounded :class:`repro.load.queueing.AdmissionGate`.

Measured per point:

* throughput — requests completed inside the measurement window;
* goodput ratio — completed / offered (the saturation-knee signal);
* shed and failed counts — admission drops and survivable errors;
* per-request latency (arrival to completion, queueing included) in a
  :class:`repro.trace.histogram.LatencyHistogram` → p50/p95/p99.

The whole run is a pure function of :class:`LoadParams` — seeded RNGs,
no wall-clock — so ``fig09_load`` points computed on pool workers are
byte-identical to serial runs (the PR-3 contract).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.load.arrivals import OpenLoopArrivals, ThinkTimes
from repro.load.queueing import (LOAD_SURVIVABLE, AdmissionGate,
                                 RequestQueue)
from repro.load.transports import make_transport

MODES = ("open", "closed")


@dataclass
class LoadParams:
    """Tunables of one load point (all JSON-representable)."""

    primitive: str = "pipe"
    #: "open" (offered-load sweep) or "closed" (client-count sweep)
    mode: str = "open"
    #: admission policy: "shed" or "block"
    policy: str = "shed"
    #: open-loop arrival process: "poisson" or "uniform"
    arrivals: str = "poisson"
    #: open loop: total offered load, thousand requests per second
    offered_kops: float = 100.0
    n_clients: int = 8
    #: open loop: persistent runner threads draining the request queue
    n_conns: int = 16
    n_workers: int = 2
    queue_depth: int = 32
    req_size: int = 256
    service_ns: float = 500.0
    #: closed loop: mean think time between a client's requests
    think_ns: float = 20_000.0
    deadline_ns: float = 300_000.0
    warmup_ns: float = 1.0 * units.MS
    window_ns: float = 4.0 * units.MS
    num_cpus: int = 4
    seed: int = 42
    #: 0 = generate until the window closes; >0 bounds each client's
    #: requests so the run can drain (fault tests audit a quiet kernel)
    max_requests_per_client: int = 0
    #: run past the window until the event queue drains (requires
    #: ``max_requests_per_client > 0``)
    drain: bool = False
    #: raise the first client/worker crash (off for fault tests, which
    #: inspect crashes deliberately)
    check: bool = True
    #: supervise the server pool: crashed workers are respawned after a
    #: seeded backoff, a killed server process is rebuilt (forced on
    #: while a RecoverySession is active)
    supervise: bool = False
    #: arm per-shard circuit breakers around ``transport.call`` (forced
    #: on while a RecoverySession is active)
    breaker: bool = False
    #: a :meth:`repro.topo.spec.TopoSpec.to_dict` service graph: when
    #: set, the run instantiates the whole topology (one domain per
    #: service, every hop over ``primitive``) instead of the single
    #: client/server hop — see :class:`repro.topo.instantiate.TopoTransport`
    topo: dict = None


@dataclass
class LoadResult:
    """Measurements of one load point (see :meth:`to_point`)."""

    primitive: str
    mode: str
    policy: str
    offered_kops: float
    n_clients: int
    offered_seen: int
    completed: int
    shed: int
    failed: int
    throughput_kops: float
    goodput_ratio: float
    mean_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float
    cpu_busy_fraction: float
    peak_backlog: int
    backlog_at_end: int
    worker_crashes: int
    worker_restarts: int = 0
    pool_rebuilds: int = 0
    breaker_fast_fails: int = 0
    reclamation_violations: int = 0

    def to_point(self) -> dict:
        """JSON-safe dict for the parallel runner / result cache."""
        return {
            "primitive": self.primitive,
            "mode": self.mode,
            "policy": self.policy,
            "offered_kops": self.offered_kops,
            "n_clients": self.n_clients,
            "offered_seen": self.offered_seen,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "throughput_kops": self.throughput_kops,
            "goodput_ratio": self.goodput_ratio,
            "mean_ns": self.mean_ns,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "p999_ns": self.p999_ns,
            "max_ns": self.max_ns,
            "cpu_busy_fraction": self.cpu_busy_fraction,
            "peak_backlog": self.peak_backlog,
            "backlog_at_end": self.backlog_at_end,
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
            "pool_rebuilds": self.pool_rebuilds,
            "breaker_fast_fails": self.breaker_fast_fails,
            "reclamation_violations": self.reclamation_violations,
        }


class _LoadRun:
    """Mutable state shared by the threads of one point."""

    def __init__(self):
        from repro.trace.histogram import LatencyHistogram
        self.measuring = False
        self.offered = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.hist = LatencyHistogram()


def run_load_point(params: LoadParams, *,
                   keep_kernel: list = None) -> LoadResult:
    """Build, run and measure one load point.

    ``keep_kernel`` is a test hook: when a list is passed, the built
    kernel is appended to it so fault tests can audit it post-run.
    """
    from repro.kernel import Kernel

    if params.mode not in MODES:
        raise ValueError(f"unknown load mode {params.mode!r}")
    if params.drain and params.max_requests_per_client <= 0:
        raise ValueError("drain requires max_requests_per_client > 0")
    # in-flight requests are bounded by the runner pool (open) or the
    # gate (closed); keep the bytes they can park in any one pipe far
    # below its capacity — a full pipe whose head message has not
    # started draining would head-of-line-block the framed reader.
    # In-process primitives (registry ``in_process`` capability) never
    # park request bytes in a kernel buffer, so the bound is moot.
    from repro import primitives
    if not primitives.get(params.primitive).capabilities.in_process \
            and max(params.n_conns, params.queue_depth) \
            * params.req_size > 32 * units.KB:
        raise ValueError("n_conns/queue_depth * req_size must stay "
                         "under half the pipe buffer")

    from repro.recovery.session import RecoverySession
    session = RecoverySession.current()
    supervise = params.supervise or session is not None
    use_breaker = params.breaker or session is not None

    kernel = Kernel(num_cpus=params.num_cpus)
    if keep_kernel is not None:
        keep_kernel.append(kernel)
    transport = make_transport(params)
    supervisor = None
    if supervise:
        from repro.recovery.supervisor import Supervisor
        supervisor = Supervisor(
            kernel, policy=session.policy if session else None,
            seed=params.seed, name=params.primitive)
        transport.supervisor = supervisor
    transport.build(kernel)
    if supervisor is not None:
        supervisor.watch_pool(lambda: transport.server_proc,
                              transport.rebuild_pool)
    if use_breaker:
        transport.arm_breakers()
    if session is not None:
        session.register(supervisor, transport)
    # resolve once: the breakerless path keeps the pre-recovery call
    # chain (no wrapper generator on the hot path)
    issue = transport.request if use_breaker else transport.call
    run = _LoadRun()
    limit = params.max_requests_per_client

    queue = RequestQueue(kernel, depth=params.queue_depth,
                         policy=params.policy)
    gate = AdmissionGate(kernel, depth=params.queue_depth,
                         policy=params.policy)
    dispatchers_left = [params.n_clients]

    def open_dispatcher(t, cid):
        rate = (params.offered_kops * 1e3 / units.SECOND
                / params.n_clients)
        arrivals = OpenLoopArrivals(process=params.arrivals,
                                    rate_per_ns=rate,
                                    seed=params.seed, client_id=cid)
        try:
            # arrivals follow an absolute schedule (wrk2-style): when
            # scheduling delay makes the dispatcher late it catches up
            # in a burst instead of silently stretching the gaps, so
            # the offered rate is honoured and latency is measured
            # from the *intended* arrival — no coordinated omission
            next_arrival = t.now()
            seq = 0
            while not limit or seq < limit:
                next_arrival += arrivals.next_gap_ns()
                if next_arrival > t.now():
                    yield from t.sleep(next_arrival - t.now())
                measured = run.measuring
                if measured:
                    run.offered += 1
                if not queue.put((cid, next_arrival, measured)):
                    if measured:
                        run.shed += 1
                seq += 1
        finally:
            dispatchers_left[0] -= 1
            if dispatchers_left[0] == 0:
                queue.close()

    def runner(t):
        while True:
            item = yield from queue.get(t)
            if item is None:
                return
            cid, arrival, measured = item
            try:
                yield from issue(t, cid)
                if measured:
                    run.completed += 1
                    run.hist.add(t.now() - arrival)
            except LOAD_SURVIVABLE:
                if measured:
                    run.failed += 1

    def closed_client(t, cid):
        think = ThinkTimes(mean_ns=params.think_ns, seed=params.seed,
                           client_id=cid)
        seq = 0
        while not limit or seq < limit:
            yield from t.sleep(think.next_think_ns())
            measured = run.measuring
            arrival = t.now()
            if measured:
                run.offered += 1
            admitted = False
            try:
                admitted = yield from gate.admit(t)
                if not admitted:
                    if measured:
                        run.shed += 1
                    continue
                yield from issue(t, cid)
                if measured:
                    run.completed += 1
                    run.hist.add(t.now() - arrival)
            except LOAD_SURVIVABLE:
                if measured:
                    run.failed += 1
            finally:
                if admitted:
                    gate.release()
            seq += 1

    if params.mode == "open":
        for r in range(params.n_conns):
            kernel.spawn(transport.client_proc, runner,
                         name=f"load-clients/r{r}")
        for cid in range(params.n_clients):
            kernel.spawn(transport.client_proc,
                         lambda t, cid=cid: open_dispatcher(t, cid),
                         name=f"load-clients/c{cid}")
    else:
        for cid in range(params.n_clients):
            kernel.spawn(transport.client_proc,
                         lambda t, cid=cid: closed_client(t, cid),
                         name=f"load-clients/c{cid}")

    machine = kernel.machine
    end_ns = params.warmup_ns + params.window_ns

    def start_measuring():
        machine.flush_idle()
        machine.reset_accounts()
        run.measuring = True

    def stop_measuring():
        run.measuring = False

    kernel.engine.post(params.warmup_ns, start_measuring)
    kernel.engine.post(end_ns, stop_measuring)
    if supervisor is not None:
        # stand the supervisor down when the window closes so drain-mode
        # runs are not kept alive by watchdog heartbeats
        kernel.engine.post(end_ns, supervisor.stop)
    kernel.run(until_ns=None if params.drain else end_ns)
    from repro.fault.session import ChaosSession
    if (params.check and ChaosSession.current() is None
            and session is None):
        kernel.check()

    machine.flush_idle()
    modes = machine.total_account().by_mode()
    total = sum(modes.values()) or 1.0
    window_s = params.window_ns / units.SECOND
    summary = run.hist.summary()
    if params.mode == "open":
        peak_backlog, backlog_at_end = (queue.peak_depth,
                                        len(queue.pending))
    else:
        peak_backlog, backlog_at_end = (gate.peak_in_flight,
                                        gate.in_flight)
    result = LoadResult(
        primitive=params.primitive, mode=params.mode,
        policy=params.policy, offered_kops=params.offered_kops,
        n_clients=params.n_clients,
        offered_seen=run.offered, completed=run.completed,
        shed=run.shed, failed=run.failed,
        throughput_kops=run.completed / window_s / 1e3,
        goodput_ratio=(run.completed / run.offered if run.offered
                       else 0.0),
        mean_ns=summary["mean_ns"], p50_ns=summary["p50_ns"],
        p95_ns=summary["p95_ns"], p99_ns=summary["p99_ns"],
        p999_ns=summary["p999_ns"], max_ns=summary["max_ns"],
        cpu_busy_fraction=1.0 - modes["idle"] / total,
        peak_backlog=peak_backlog,
        backlog_at_end=backlog_at_end,
        worker_crashes=len(kernel.crashed_threads),
        worker_restarts=(supervisor.worker_restarts
                         if supervisor is not None else 0),
        pool_rebuilds=(supervisor.pool_rebuilds
                       if supervisor is not None else 0),
        breaker_fast_fails=sum(b.fast_fails
                               for b in transport.breakers),
        reclamation_violations=(len(supervisor.audit_violations)
                                if supervisor is not None else 0))
    if keep_kernel is None:
        kernel.release()
    return result

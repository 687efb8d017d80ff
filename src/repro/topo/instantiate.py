"""Materialize a :class:`~repro.topo.spec.TopoSpec` onto a kernel.

:class:`TopoTransport` is a :class:`repro.load.transports.Transport`:
the fig9 load harness builds it, drives ``call()`` from its client
threads, arms breakers around it and supervises it exactly like the
five single-hop transports — but one ``call`` traverses an entire
service graph. Per spec node it spawns one process (one protection
domain); per spec edge it wires one *hop* over the chosen primitive:

* **pipe** — per-hop request pipes (one per worker, a pipe's framed
  read path is single-reader) with a fresh reply pipe per request;
* **socket** — one datagram request socket per hop drained by the
  hop's workers, a fresh uniquely-named reply socket per request;
* **rpc** — one :class:`RpcServer` per hop with ``n_workers`` service
  threads, a fresh client handle (own reply socket + timeout) per
  request;
* **l4** — one rendezvous endpoint per (hop, worker), workers sharded
  round-robin;
* **dipc** — *no worker threads anywhere in the graph*: every node
  registers an entry, every edge is an entry_request + grant, and a
  request is one thread migrating node to node through proxies. The
  baselines' end-to-end concurrency is capped by the smallest worker
  pool along the path; dIPC's only cap is CPU capacity — which is
  exactly why deep graphs compound its per-hop advantage;
* **dpti** — one :class:`~repro.ipc.dpti.DptiEndpoint` per edge: the
  caller's thread traps and runs the destination inline behind a
  PCID-tagged page-table switch (no workers, like dIPC, but every hop
  still pays trap + gate + kernel copies);
* **odipc** — dIPC hops whose argument read is offloaded to the DMA
  engine above the crossover size (below it, identical to dipc).

Which hop class serves which primitive — and whether a primitive needs
the trusted dIPC runtime, worker pools, or neither — comes from the
:mod:`repro.primitives` registry, not from string comparisons here.

A node's service body burns its ``work_ns``, then visits its children:
``seq`` nodes call them one after another (latency adds), ``par``
nodes fan them out on helper threads joined through a semaphore with a
deadline (latency maxes). Worker death anywhere must never wedge the
graph: every blocking hop wait is bounded (``with_deadline`` or native
receive timeouts), a failed downstream call is reported upstream as a
:class:`DownstreamFault` reply rather than a silent drop, and every
piece (processes, endpoints, workers, entries) can be rebuilt by the
supervisor after a kill.
"""

from __future__ import annotations

from repro import primitives
from repro.errors import KernelError, PeerResetError
from repro.ipc.l4 import L4Endpoint
from repro.ipc.pipe import Pipe
from repro.ipc.rpc import RpcClient, RpcServer
from repro.ipc.semaphore import Semaphore
from repro.ipc.unixsocket import SocketNamespace
from repro.kernel.effects import Charge
from repro.load.queueing import LOAD_SURVIVABLE, with_deadline
from repro.load.transports import (CLIENT_PROCESS, REPLY_SIZE,
                                   SERVER_PROCESS, WORKER_PREFIX,
                                   Transport)
from repro.topo.spec import ROOT, TopoSpec

#: pseudo node id for the load-generator process (the root's caller)
CLIENT = -1

#: optional phase probe for the kill-point conformance harness
#: (:mod:`repro.recovery.conformance`): called with labels like
#: ``call:enter``, ``serve:<node>:enter`` and ``rebuild:exit`` at the
#: corresponding points of a request's life. Probes are plain Python
#: callbacks — they never post engine events or draw randomness — so an
#: armed probe cannot perturb the deterministic event order.
_probe = None


def set_probe(probe):
    """Install the module-wide probe (``None`` clears); returns the
    previously installed one so callers can restore it."""
    global _probe
    previous = _probe
    _probe = probe
    return previous


class DownstreamFault(KernelError):
    """A hop deeper in the graph failed; reported up the call path."""


# ---------------------------------------------------------------------------
# hops: one directed edge over one primitive
# ---------------------------------------------------------------------------

class _Hop:
    """One ``src -> dst`` edge: endpoints owned by ``dst``, served by
    ``dst``-side workers (except dIPC), called from ``src``-side
    threads."""

    #: True when the hop's wiring embeds the *source* process identity
    #: (pipe writer end, dIPC grants), so a reborn source also needs
    #: the hop rebuilt; path-addressed hops (socket, rpc) and L4 only
    #: care about the destination side
    rebuild_on_src = False

    def __init__(self, transport: "TopoTransport", index: int,
                 src: int, dst: int, req_size: int):
        self.transport = transport
        self.index = index
        self.src = src
        self.dst = dst
        self.req_size = req_size
        self._rr = 0          # round-robin worker shard for callers
        self._seq = 0         # unique per-request reply names

    @property
    def kernel(self):
        return self.transport.kernel

    @property
    def params(self):
        return self.transport.params

    @property
    def dst_proc(self):
        return self.transport.procs[self.dst]

    @property
    def label(self) -> str:
        return f"e{self.index}"

    def _serve(self, t, payload):
        """Run the destination node's service body."""
        return self.transport.serve(t, self.dst, payload)

    def _shard(self) -> int:
        shard = self._rr % self.params.n_workers
        self._rr += 1
        return shard

    # overridden per primitive:

    def build(self) -> None:
        """Create this hop's endpoints (idempotent: a rebuild of the
        destination node calls it again over fresh processes)."""
        raise NotImplementedError

    def worker_body(self, slot: int):
        raise NotImplementedError

    def call(self, thread, payload):
        raise NotImplementedError


class _PipeHop(_Hop):
    rebuild_on_src = True

    def build(self) -> None:
        self.req_pipes = []
        for _w in range(self.params.n_workers):
            pipe = Pipe(self.kernel)
            pipe.bind_endpoints(writer=self.transport.proc_of(self.src),
                                reader=self.dst_proc)
            self.req_pipes.append(pipe)

    def worker_body(self, slot: int):
        req_pipe = self.req_pipes[slot]

        def worker(t):
            while True:
                try:
                    message = yield from req_pipe.read(t)
                except KernelError:
                    continue          # a caller died mid-write
                if message is None:
                    return            # EOF: caller process gone
                reply_pipe, payload = message
                verdict = REPLY_SIZE, "ok"
                try:
                    yield from self._serve(t, payload)
                except LOAD_SURVIVABLE:
                    verdict = REPLY_SIZE, "err"
                try:
                    yield from reply_pipe.write(t, verdict[0],
                                                payload=verdict[1])
                except KernelError:
                    continue          # caller gave up: drop the reply

        return worker

    def call(self, thread, payload):
        req_pipe = self.req_pipes[self._shard()]
        reply_pipe = Pipe(self.kernel)
        reply_pipe.bind_endpoints(writer=self.dst_proc,
                                  reader=thread.process)

        def _round_trip():
            yield from req_pipe.write(thread, self.req_size,
                                      payload=(reply_pipe, payload))
            reply = yield from reply_pipe.read(thread)
            if reply is None:
                raise PeerResetError(f"hop {self.label}: service "
                                     f"closed the reply pipe")
            if reply == "err":
                raise DownstreamFault(f"hop {self.label}: downstream "
                                      f"failure")
            return reply

        def _cleanup():
            for queue in (req_pipe._writers, reply_pipe._readers):
                try:
                    queue.remove(thread)
                except ValueError:
                    pass

        return with_deadline(thread, _round_trip(),
                             self.params.deadline_ns, _cleanup)


class _SocketHop(_Hop):
    def build(self) -> None:
        # rebinds over a dead predecessor's tombstone on rebuild
        self.req_sock = self.transport.ns.socket(self.kernel)
        self.req_sock.bind(f"/topo/{self.label}/req")
        self.req_sock.bind_owner(self.dst_proc)

    def worker_body(self, slot: int):
        req_sock = self.req_sock

        def worker(t):
            while True:
                try:
                    request, _ = yield from req_sock.recvfrom(t)
                except KernelError:
                    return            # socket reset: our process killed
                if request is None:
                    return
                reply_to, payload = request
                verdict = "ok"
                try:
                    yield from self._serve(t, payload)
                except LOAD_SURVIVABLE:
                    verdict = "err"
                try:
                    yield from req_sock.sendto(t, reply_to, REPLY_SIZE,
                                               payload=verdict)
                except KernelError:
                    continue          # caller timed out and closed

        return worker

    def call(self, thread, payload):
        self._seq += 1
        reply_path = f"/topo/{self.label}/r{self._seq}"
        sock = self.transport.ns.socket(self.kernel)
        sock.bind(reply_path)
        sock.bind_owner(thread.process)
        try:
            yield from sock.sendto(thread, f"/topo/{self.label}/req",
                                   self.req_size,
                                   payload=(reply_path, payload))
            reply, _ = yield from sock.recvfrom(
                thread, timeout_ns=self.params.deadline_ns)
            if reply is None:
                raise PeerResetError(f"hop {self.label}: service "
                                     f"closed the reply socket")
            if reply == "err":
                raise DownstreamFault(f"hop {self.label}: downstream "
                                      f"failure")
            return reply
        finally:
            sock.close()


class _RpcHop(_Hop):
    def build(self) -> None:
        self.server = RpcServer(self.kernel, self.dst_proc,
                                self.transport.ns,
                                f"/topo/{self.label}/rpc")

        def handler(t, payload):
            try:
                yield from self._serve(t, payload)
            except LOAD_SURVIVABLE:
                return REPLY_SIZE, "err"
            return REPLY_SIZE, "ok"

        self.server.register("visit", handler)

    def worker_body(self, slot: int):
        server = self.server
        return lambda t: server.serve_loop(t)

    def call(self, thread, payload):
        self._seq += 1
        client = RpcClient(
            self.kernel, thread.process, self.transport.ns,
            f"/topo/{self.label}/rpc",
            reply_timeout_ns=self.params.deadline_ns,
            client_path=f"/topo/{self.label}/rpc#c{self._seq}")
        reply = yield from client.call(thread, "visit", self.req_size,
                                       payload)
        if reply == "err":
            raise DownstreamFault(f"hop {self.label}: downstream "
                                  f"failure")
        return reply


class _L4Hop(_Hop):
    def build(self) -> None:
        self.endpoints = []
        for _w in range(self.params.n_workers):
            endpoint = L4Endpoint(self.kernel)
            endpoint.bind_owner(self.dst_proc)
            self.endpoints.append(endpoint)

    def worker_body(self, slot: int):
        endpoint = self.endpoints[slot]

        def worker(t):
            caller, payload = yield from endpoint.wait(t)
            while True:
                verdict = "ok"
                try:
                    yield from self._serve(t, payload)
                except LOAD_SURVIVABLE:
                    verdict = "err"
                caller, payload = yield from endpoint.reply_and_wait(
                    t, caller, verdict)

        return worker

    def call(self, thread, payload):
        endpoint = self.endpoints[self._shard()]

        def _round_trip():
            reply = yield from endpoint.call(thread, payload)
            if reply == "err":
                raise DownstreamFault(f"hop {self.label}: downstream "
                                      f"failure")
            return reply

        def _cleanup():
            endpoint._pending = type(endpoint._pending)(
                entry for entry in endpoint._pending
                if entry[0] is not thread)
            if thread in endpoint._outstanding:
                endpoint._outstanding.remove(thread)

        return with_deadline(thread, _round_trip(),
                             self.params.deadline_ns, _cleanup)


class _DipcHop(_Hop):
    """An entry_request + grant: the caller migrates, so there is
    nothing to serve and nobody to spawn."""

    rebuild_on_src = True

    def build(self) -> None:
        from repro.core.objects import EntryDescriptor, Signature
        from repro.core.policies import IsolationPolicy

        transport = self.transport
        manager = transport.manager
        request = [EntryDescriptor(
            signature=Signature(in_regs=1, out_regs=1),
            policy=IsolationPolicy(reg_integrity=True,
                                   stack_integrity=True,
                                   dcs_integrity=True),
            name="visit")]
        caller_proc = transport.proc_of(self.src)
        handle, _ = manager.entry_request(
            caller_proc, transport.entries[self.dst], request)
        manager.grant_create(manager.dom_default(caller_proc), handle)
        self.address = request[0].address

    def worker_body(self, slot: int):  # pragma: no cover - never spawned
        raise NotImplementedError("dIPC hops have no workers")

    def _data_extra_ns(self) -> float:
        """CPU the callee spends reading the capability-passed argument
        buffer. Small payloads are folded into the node's ``work_ns``
        like every other hop; above the offload threshold the inline
        read is charged explicitly (the cost odipc attacks)."""
        costs = self.kernel.costs
        if self.req_size >= costs.OFFLOAD_THRESHOLD:
            return self.kernel.machine.cache.touch_ns(self.req_size)
        return 0.0

    def call(self, thread, payload):
        extra = self._data_extra_ns()
        if not extra:
            return self.transport.manager.call(thread, self.address,
                                               payload)

        def _with_read():
            yield thread.compute(extra)
            return (yield from self.transport.manager.call(
                thread, self.address, payload))

        return _with_read()


class _OdipcHop(_DipcHop):
    """A dIPC hop with the bulk-copy offload engine: above the
    crossover size the argument read becomes a DMA descriptor whose
    transfer overlaps the proxy call path; below it, exactly
    :class:`_DipcHop`."""

    def _data_extra_ns(self) -> float:
        costs = self.kernel.costs
        if self.req_size >= costs.OFFLOAD_THRESHOLD:
            return costs.offload_copy_ns(self.req_size)
        return 0.0


class _DptiHop(_Hop):
    """A kernel-mediated domain call: trap, PCID-tagged page-table
    switch into the destination domain, then the service body runs
    inline on the caller's thread — no workers anywhere in the graph,
    but every hop still pays trap + gate + kernel copies."""

    def build(self) -> None:
        from repro.ipc.dpti import DptiEndpoint

        def visit(t, payload):
            verdict = "ok"
            try:
                yield from self._serve(t, payload)
            except LOAD_SURVIVABLE:
                verdict = "err"
            return verdict

        self.endpoint = DptiEndpoint(self.kernel, visit)
        self.endpoint.bind_owner(self.dst_proc)

    def worker_body(self, slot: int):  # pragma: no cover - never spawned
        raise NotImplementedError("dpti hops have no workers")

    def call(self, thread, payload):
        reply = yield from self.endpoint.call(
            thread, payload, size=self.req_size, reply_size=REPLY_SIZE)
        if reply == "err":
            raise DownstreamFault(f"hop {self.label}: downstream "
                                  f"failure")
        return reply


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------

class TopoTransport(Transport):
    """A whole service graph behind the single-hop transport API."""

    name = "topo"
    sharded_endpoints = False

    def __init__(self, params):
        super().__init__(params)
        try:
            spec = primitives.get(params.primitive)
        except KeyError:
            raise ValueError(
                f"unknown hop primitive {params.primitive!r} (choose "
                f"from {', '.join(sorted(primitives.names()))})") \
                from None
        self.spec = TopoSpec.from_dict(params.topo).validate()
        self.primitive = params.primitive
        self._hop_spec = spec
        self.has_worker_threads = spec.capabilities.has_worker_threads
        self.procs = {}
        self.hops = {}
        self.entries = {}
        self.manager = None
        self._worker_slots = {}
        self._children = {node.id: self.spec.children(node.id)
                          for node in self.spec.nodes}
        self._nodes = {node.id: node for node in self.spec.nodes}
        #: each node's fixed compute, built once (None when it has none)
        self._work = {node.id: Charge(node.work_ns) if node.work_ns
                      else None for node in self.spec.nodes}

    def proc_of(self, node_id: int):
        return (self.client_proc if node_id == CLIENT
                else self.procs[node_id])

    def _proc_name(self, node_id: int) -> str:
        """The root keeps the load harness's well-known server name so
        chaos storms aimed at the default victim menu hit the topology
        too; the rest carry their service names."""
        if node_id == ROOT:
            return SERVER_PROCESS
        return f"svc{node_id}:{self._nodes[node_id].name}"

    # -- construction -------------------------------------------------------

    def build(self, kernel) -> None:
        self.kernel = kernel
        self.ns = SocketNamespace()
        trusted = self._hop_spec.capabilities.trusted
        if trusted:
            from repro.core.api import DipcManager
            self.manager = DipcManager(kernel)
        self.client_proc = kernel.spawn_process(CLIENT_PROCESS,
                                                dipc=trusted)
        for node in self.spec.nodes:
            self.procs[node.id] = kernel.spawn_process(
                self._proc_name(node.id), dipc=trusted)
        self.server_proc = self.procs[ROOT]
        if trusted:
            # children before parents, mirroring the OLTP chain: every
            # node exports one entry, then every edge imports a proxy
            for node_id in reversed(self.spec.topological_order()):
                self._register_entry(node_id)
        hop_cls = self._hop_spec.hop()
        for index, edge in enumerate(self._all_edges()):
            src, dst, req_size = edge
            hop = hop_cls(self, index, src, dst, req_size)
            hop.build()
            self.hops[(src, dst)] = hop
            if self.has_worker_threads:
                self._spawn_hop_workers(hop)

    def _all_edges(self):
        """Spec edges plus the synthetic client -> root edge."""
        yield (CLIENT, ROOT, self.params.req_size)
        for edge in self.spec.edges:
            yield (edge.src, edge.dst, edge.req_size)

    def _register_entry(self, node_id: int) -> None:
        """Export node ``node_id``'s service body as a dIPC entry; the
        service protects its stack/DCS from callers (mutual distrust,
        the dipc_proc_high regime of Figure 5)."""
        from repro.core.objects import EntryDescriptor, Signature
        from repro.core.policies import IsolationPolicy

        manager = self.manager
        process = self.procs[node_id]

        def visit(t, payload, node_id=node_id):
            return self.serve(t, node_id, payload)

        self.entries[node_id] = manager.entry_register(
            process, manager.dom_default(process),
            [EntryDescriptor(
                signature=Signature(in_regs=1, out_regs=1),
                policy=IsolationPolicy(stack_confidentiality=True,
                                       dcs_integrity=True),
                func=visit, name="visit")])

    def _spawn_hop_workers(self, hop: _Hop) -> None:
        for slot in range(self.params.n_workers):
            index = len(self._worker_slots)
            self._worker_slots[index] = (hop, slot)
            self._spawn_topo_worker(index)

    def _spawn_topo_worker(self, index: int):
        hop, slot = self._worker_slots[index]
        thread = self.kernel.spawn(
            hop.dst_proc, hop.worker_body(slot),
            name=f"{WORKER_PREFIX}{index}", daemon=True)
        self.worker_threads[index] = thread
        if self.supervisor is not None:
            self.supervisor.adopt(
                f"w{index}", thread,
                lambda index=index: self.respawn_worker(index))
        return thread

    # -- the service body ---------------------------------------------------

    def serve(self, t, node_id: int, payload):
        """Burn the node's CPU, then visit its children: returns the
        service sub-generator, whose result is ``"ok"`` (the reply of a
        dIPC ``visit`` entry). A plain function, like :meth:`call`, so
        an unprobed ``yield from`` chain gets no pass-through frame."""
        if _probe is None:
            return self._serve_body(t, node_id, payload)
        return self._probed_serve(t, node_id, payload)

    def _probed_serve(self, t, node_id: int, payload):
        _probe(f"serve:{node_id}:enter")
        try:
            return (yield from self._serve_body(t, node_id, payload))
        finally:
            _probe(f"serve:{node_id}:exit")

    def _serve_body(self, t, node_id: int, payload):
        work = self._work[node_id]
        if work is not None:
            yield work
        node = self._nodes[node_id]
        children = self._children[node_id]
        if node.mode == "par" and len(children) > 1:
            yield from self._visit_par(t, node_id, children, payload)
        else:
            for child in children:
                yield from self.hops[(node_id, child)].call(t, payload)
        return "ok"

    def _visit_par(self, t, node_id: int, children, payload):
        """Scatter-gather: one helper thread per child, joined through
        a semaphore with a deadline so a killed helper can never wedge
        the parent."""
        sem = Semaphore(self.kernel, 0)
        failures = []
        process = self.procs[node_id]

        def helper(child):
            def body(ht):
                try:
                    yield from self.hops[(node_id, child)].call(ht,
                                                                payload)
                except LOAD_SURVIVABLE as exc:
                    failures.append(exc)
                yield from sem.post(ht)
            return body

        for child in children:
            self.kernel.spawn(process, helper(child),
                              name=f"topo/n{node_id}/par{child}")

        def _join():
            for _ in children:
                yield from sem.wait(t)

        def _cleanup():
            try:
                sem._futex._waiters.remove(t)
            except ValueError:
                pass

        # budget: every child has deadline_ns to finish; one extra
        # deadline of slack covers scheduling of the helpers themselves
        yield from with_deadline(t, _join(),
                                 2.0 * self.params.deadline_ns,
                                 _cleanup)
        if failures:
            raise DownstreamFault(
                f"node {node_id}: {len(failures)} of {len(children)} "
                f"parallel children failed")

    # -- the transport API the load harness drives --------------------------

    def call(self, thread, client_id: int):
        if _probe is None:
            return self.hops[(CLIENT, ROOT)].call(thread, client_id)
        return self._probed_call(thread, client_id)

    def _probed_call(self, thread, client_id: int):
        _probe("call:enter")
        try:
            return (yield from self.hops[(CLIENT, ROOT)].call(thread,
                                                              client_id))
        finally:
            _probe("call:exit")

    # -- recovery hooks -----------------------------------------------------

    def respawn_worker(self, index: int):
        """Supervisor hook: replace one dead worker in place."""
        return self._spawn_topo_worker(index)

    def rebuild_pool(self) -> None:
        """Supervisor hook: rebuild every dead service in the graph —
        fresh process, fresh endpoints (rebinding over tombstones),
        fresh entry registrations, fresh workers."""
        if _probe is not None:
            _probe("rebuild:enter")
        dead = [node.id for node in self.spec.nodes
                if not self.procs[node.id].alive]
        trusted = self._hop_spec.capabilities.trusted
        for node_id in dead:
            self.procs[node_id] = self.kernel.spawn_process(
                self._proc_name(node_id), dipc=trusted)
        self.server_proc = self.procs[ROOT]
        if trusted:
            # re-export entries of the reborn nodes (children first so a
            # parent's re-import below finds the fresh registration)
            for node_id in reversed(self.spec.topological_order()):
                if node_id in dead:
                    self._register_entry(node_id)
        rebuilt = set(dead)
        for (src, dst), hop in self.hops.items():
            # the destination owns a hop's endpoints; the source side
            # only matters where the wiring embeds its process identity
            # (rebuild_on_src). A live destination's workers died with
            # their pipes' writer (EOF) or with their own process, so
            # every rewired hop respawns its worker slots over the
            # fresh endpoints.
            if dst in rebuilt or (src in rebuilt and hop.rebuild_on_src):
                hop.build()
                if self.has_worker_threads:
                    for index, (h, _slot) in self._worker_slots.items():
                        if h is hop:
                            self._spawn_topo_worker(index)
        if _probe is not None:
            _probe("rebuild:exit")

"""Baseline insertion compiler and the tree-search co-compiler.

Graph vertex v lives on logical qubit v+1 (physical qubit v+1); the top
qubit is 0 and the bottom qubit is k+1.  Phase rotations map to RZZ on the
two data qubits, mixer rotations to RXX anchored on the top qubit (or the
bottom qubit as well, when the circuit is flagged globally flip-symmetric).

Both compilers start from one component plan, `_build_task`: the init
gadget, then the p phase/mixer layers with the s syndromes inserted at
`syndrome_insertion_points`, then the final measurement; each gadget's
classical bits start where the previous gadget's end, offsets following
each gadget's clbit count.  The plan fixes the physical qubits of every
rotation and fixed gadget gate once, anchors included: one qubit tuple
per phase or gadget gate, one per anchor a mixer may use.
Scheduling, the heuristic and emission read qubits only from it.  The
baseline splices each gadget between full-width barriers and
list-schedules each run of algorithmic components between them
(`_schedule_chunk`).  That scheduler keeps a readiness index, per qubit
the lowest component still touching it, and running per-qubit totals of
the pending gates, so no layer re-walks the earlier or later components.

The co-compiler searches over circuit states: each node is a prefix of
scheduled layers plus per-component progress cursors; a layer's items are
("gate", pos, i, qubits), gate i of component pos on one qubit option, and
a syndrome stage ("bind" or "synstep", pos, its data qubit pair).  Nodes
are ranked by F = G + H, G the layer count so far and H the max weighted
degree of the uncompiled-interaction graph.  A node's degree vector is
filled once when it is created: a child carries its parent's and removes only
what its layer scheduled, so no node re-walks every pending gate.  The
degrees are floats; `matching.max_weight_matching`, a copy of networkx
3.6.1's, matches int and float weights alike.  Expansion picks up to
`EXPANSION_WIDTH` children by maximum-weight matching over the
executable-gate graph, with at most one syndrome block per layer.  A
child shares its parent's progress frozenset of every component its layer
did not touch, so `_GateComp.reserved` keeps, per progress seen, the
qubits the component reserves: the executable graph walks them only for
the components the layer changed, and skips a component whose qubits
are all reserved already.  Syndrome internals follow the fault-tolerant
pipeline templates, with the pair-to-slot binding chosen during the search
when resynthesis is enabled.  The init order and the syndrome's binding
stages are read off the gadgets, not restated here.

The driver pops nodes best first until it pops the goal or the node past
`queue_cap` expansions, then ends with one greedy rollout (the first child
of each width-1 expansion) from the node it stopped on.  Children are made
lazily, as in partial-expansion A* (Yoshizumi, Miura & Ishida, AAAI 2000):
an expansion builds the executable graph and the matcher input once and
queues one entry for its children, keyed by a lower bound hb on their h;
each pop of that entry runs one matching, makes one child, and queues the
next under a fresh bound over the pairs the matcher input still holds.
The bound rests on a layer touching each qubit at most once, so a child's
degree of a vertex drops by at most one where the layer can touch it: a
data qubit on an available pair or forced; t and b together when a z2
mixer pair is available (its component's load is re-split between them by
the mixers left), by two when another item can touch an anchor too; and
the merged-ancilla vertex when an ancilla is on a pair, a syndrome step is
forced, or a bind pair is available.  Every node pops in the order of a
search that makes all children at once, so every circuit is the same;
`compile_cooptimized` says why.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

from .circuit import (CircuitError, ComponentRole, Gate, GateKind,
                      PhysicalCircuit, layered_schedule, read_circuit,
                      two_qubit_depth, write_circuit)
from .gadgets import (Gadget, GadgetKind, IcebergLayout, ParityCheck,
                      build_gadget, gadget_role, syndrome_lag_schedule)
from .matching import max_weight_matching
from .maxcut import ProblemGraph, QaoaParams, build_qaoa


class CompileError(ValueError):
    pass


class GadgetSet(Enum):
    OLD = "old"
    NEW = "new"


# children per best-first expansion (one per distinct matching)
EXPANSION_WIDTH = 3


@dataclass(frozen=True)
class CompileConfig:
    num_syndromes: int = 3
    gadget_set: GadgetSet = GadgetSet.NEW
    use_z2: bool = False
    resynthesize: bool = False
    # best-first node budget before falling back to a greedy rollout from
    # the node the search stopped on; compile quality saturates by a few
    # hundred nodes on every family tested, so sweeps keep this small
    queue_cap: int = 2000

    def validate(self, layout: IcebergLayout) -> None:
        if self.num_syndromes < 0:
            raise CompileError("num_syndromes must be >= 0")
        if self.queue_cap < 0:
            raise CompileError("queue_cap must be >= 0")
        if (self.gadget_set is GadgetSet.NEW and self.num_syndromes > 0
                and layout.n % 4 != 0):
            raise CompileError(
                "new syndrome gadget needs k+2 divisible by 4"
            )

    def check(self, graph: ProblemGraph) -> IcebergLayout:
        """The code layout of `graph` after every check a compile makes
        before its first gate: an even k (`IcebergLayout`), then
        `validate`.  Raises GadgetError or CompileError (both ValueError)."""
        layout = IcebergLayout(graph.num_vertices)
        self.validate(layout)
        return layout


@dataclass
class EncodedCircuit:
    circuit: PhysicalCircuit
    layout: IcebergLayout
    checks: tuple[ParityCheck, ...]
    decode: dict[int, frozenset[int]]
    graph: ProblemGraph
    params: QaoaParams
    config: CompileConfig
    mode: str
    meta: dict = field(default_factory=dict)

    def gate_multiset(self) -> dict:
        out: dict = {}
        for g in self.circuit.gates:
            if g.is_two_qubit:
                key = (g.kind, g.angle)
                out[key] = out.get(key, 0) + 1
        return out


def _gadget_kinds(gs: GadgetSet) -> tuple[GadgetKind, GadgetKind, GadgetKind]:
    if gs is GadgetSet.OLD:
        return (GadgetKind.INIT_OLD, GadgetKind.SYNDROME_OLD, GadgetKind.FINAL_OLD)
    return (GadgetKind.INIT_NEW, GadgetKind.SYNDROME_NEW, GadgetKind.FINAL_NEW)


def _rebase(gadget: Gadget, clbit_offset: int, component: int):
    gates = []
    for g in gadget.fragment.gates:
        clbit = None if g.clbit is None else g.clbit + clbit_offset
        gates.append(Gate(g.kind, g.qubits, angle=g.angle, clbit=clbit,
                          component=component))
    checks = tuple(
        ParityCheck(frozenset(b + clbit_offset for b in c.bits), c.expected)
        for c in gadget.checks
    )
    decode = None
    if gadget.decode is not None:
        decode = {i: frozenset(b + clbit_offset for b in bits)
                  for i, bits in gadget.decode.items()}
    return gates, checks, decode


def _rotation_gate(comp: _GateComp, i: int, qubits: tuple[int, int]) -> Gate:
    """Rotation i of a phase or mixer layer, on one of its qubit options."""
    kind = GateKind.RZZ if comp.role is ComponentRole.PHASE_LAYER \
        else GateKind.RXX
    return Gate(kind, qubits, angle=comp.gates[i].angle, component=comp.pos)


def _schedule_chunk(chunk: list[_GateComp]) -> list[tuple[_GateComp, int]]:
    """List-schedule one algorithmic chunk (phase/mixer components between
    two gadget fences) and return (component, gate index) in layer order.
    Every gate runs on its first qubit option, so mixers anchor on top.

    The mixer chain on the top qubit is the critical path, so every layer
    schedules a ready mixer when one exists, then fills the remaining
    qubits with ready phase gates, heaviest remaining degree first.

    A gate is ready once no earlier component of the chunk still touches
    its qubits: `first[q]` is the lowest component that does, advanced when
    that component's last gate on q is placed.  A ready gate has no earlier
    pending gate on its qubits, so the load of the later components on q
    is the running total `pending[q]` less the component's own count."""
    remaining: list[set[int]] = [set(range(len(c.qubits))) for c in chunk]
    # per component and qubit: how many of its gates still touch the qubit
    touch: list[dict[int, int]] = []
    pending: dict[int, int] = {}
    first: dict[int, int] = {}
    for ci, comp in enumerate(chunk):
        tc: dict[int, int] = {}
        for options in comp.qubits:
            for q in options[0]:
                tc[q] = tc.get(q, 0) + 1
                pending[q] = pending.get(q, 0) + 1
                first.setdefault(q, ci)
        touch.append(tc)

    def place(ci: int, gi: int) -> None:
        remaining[ci].discard(gi)
        for q in chunk[ci].qubits[gi][0]:
            touch[ci][q] -= 1
            pending[q] -= 1
            busy.add(q)
            if not touch[ci][q]:
                cj = ci + 1
                while cj < len(chunk) and not touch[cj].get(q, 0):
                    cj += 1
                first[q] = cj
        out.append((chunk[ci], gi))

    out: list[tuple[_GateComp, int]] = []
    total = sum(len(r) for r in remaining)
    while total:
        busy: set[int] = set()
        placed = 0
        # one mixer per layer keeps the top-qubit chain moving
        for ci, comp in enumerate(chunk):
            if comp.role is not ComponentRole.MIXER_LAYER:
                continue
            best = None
            for gi in sorted(remaining[ci]):
                t, q = comp.qubits[gi][0]
                if first[t] < ci or first[q] < ci:
                    continue
                load = pending[q] - touch[ci][q]
                cand = (-load, q, gi)
                if best is None or cand < best:
                    best = cand
            if best is not None:
                place(ci, best[2])
                placed += 1
                break
        # fill with phase gates
        for ci, comp in enumerate(chunk):
            if comp.role is not ComponentRole.PHASE_LAYER:
                continue
            cands = []
            for gi in sorted(remaining[ci]):
                a, b = comp.qubits[gi][0]
                if a in busy or b in busy or first[a] < ci or first[b] < ci:
                    continue
                w = touch[ci][a] + touch[ci][b]
                cands.append((-w, a, b, gi))
            for _, a, b, gi in sorted(cands):
                if a not in busy and b not in busy:
                    place(ci, gi)
                    placed += 1
        if not placed:
            raise CompileError("chunk scheduler stalled")
        total -= placed
    return out


def syndrome_insertion_points(sizes: Sequence[int], s: int) -> list[int]:
    """After how many algorithmic components each syndrome goes, splitting
    the gate count into s+1 near-equal chunks without cutting a component."""
    total = sum(sizes)
    points: list[int] = []
    cum = 0
    j = 1
    for i, sz in enumerate(sizes):
        cum += sz
        while j <= s and cum >= j * total / (s + 1) - 1e-9:
            points.append(i + 1)
            j += 1
    while j <= s:
        points.append(len(sizes))
        j += 1
    return points


def predetermine_init_order(graph: ProblemGraph, gadget_set: GadgetSet
                            ) -> tuple[int, ...]:
    """Implicit init order putting high-degree vertices where the init
    gadget frees them earliest.  The inner slots are ranked by the layer of
    their last 2Q gate in the default-order gadget, ties to the earlier
    slot; the top and bottom qubits keep the two end slots."""
    layout = IcebergLayout(graph.num_vertices)
    frag = build_gadget(_gadget_kinds(gadget_set)[0], layout.k).fragment
    freed: dict[int, int] = {}      # slot -> layer of its last 2Q gate
    for gi, layer in layered_schedule(frag).gate_layer.items():
        if frag.gates[gi].is_two_qubit:
            for q in frag.gates[gi].qubits:
                freed[q] = layer
    slots = sorted(range(1, layout.n - 1), key=lambda q: (freed[q], q))
    deg = graph.degrees()
    ranked = sorted(range(graph.num_vertices), key=lambda v: (-deg[v], v))
    order = [layout.t] * layout.n
    order[-1] = layout.b
    for slot, v in zip(slots, ranked):
        order[slot] = v + 1
    return tuple(order)


# ---------------------------------------------------------------------------
# Baseline: barrier-fenced gadget insertion
# ---------------------------------------------------------------------------

def compile_baseline(graph: ProblemGraph, params: QaoaParams,
                     cfg: CompileConfig) -> EncodedCircuit:
    """Insert default-order gadgets around the algorithmic circuit.

    Walks the component plan of `_build_task` (built with resynthesis and
    z2 anchoring off: the baseline ignores `resynthesize` and `use_z2`).  Gadgets are fenced
    with full-width barriers (protecting their structure from any later
    rescheduling); each run of algorithmic components between two gadgets
    is list-scheduled by `_schedule_chunk`, which puts each mixer on its
    top anchor."""
    task = _build_task(graph, params,
                       replace(cfg, resynthesize=False, use_z2=False))
    layout = task.layout
    circ = PhysicalCircuit(layout.num_qubits, task.num_clbits)
    checks: list[ParityCheck] = []

    def splice(gadget: Gadget, off: int, c: int):
        # full-width fences: the naive flow never co-schedules algorithmic
        # gates into gadget spans
        circ.begin_component(c, gadget_role(gadget.kind))
        gates, gchecks, gdecode = _rebase(gadget, off, c)
        circ.barrier(component=c)
        for g in gates:
            circ.add(g)
        circ.barrier(component=c)
        checks.extend(gchecks)
        return gdecode

    for fenced, run in itertools.groupby(
            task.components, key=lambda c: c.gadget is not None):
        if fenced:
            for comp in run:
                splice(comp.gadget, comp.clbit_offset, comp.pos)
            continue
        chunk = list(run)
        for comp in chunk:
            circ.begin_component(comp.pos, comp.role)
        for comp, i in _schedule_chunk(chunk):
            circ.add(_rotation_gate(comp, i, comp.qubits[i][0]))

    decode = splice(task.final, task.final_clbit_offset,
                    len(task.components))
    enc = EncodedCircuit(circ, layout, tuple(checks), decode, graph, params,
                         cfg, mode="baseline")
    enc.meta["depth_2q"] = two_qubit_depth(circ)
    enc.meta["twoq_gates"] = circ.two_qubit_gate_count()
    return enc


# ---------------------------------------------------------------------------
# Co-compilation task model
# ---------------------------------------------------------------------------

@dataclass
class _GateComp:
    """A component whose gates run on qubits the plan fixes: a phase or
    mixer layer, or a fixed-structure gadget scheduled gate by gate (init;
    syndromes when resynthesis is off; any old-style syndrome).

    `qubits[i]` lists the physical qubit tuples gate i may run on: one
    for a phase or gadget gate, and for a mixer its data qubit with the
    top anchor, then with the bottom anchor when z2 anchoring is on.
    `preds[i]` are the gates that must run before gate i (the latest
    earlier 2Q gate on each of its qubits; none for a rotation)."""
    pos: int
    role: ComponentRole
    qubits: list[tuple[tuple[int, ...], ...]]
    preds: list[frozenset[int]]
    gates: list = field(default_factory=list)   # PhaseGate or MixerGate
    gadget: Gadget | None = None    # a fragment; gate i is its i-th 2Q gate
    clbit_offset: int = 0
    # progress -> reserved(progress); a child shares its parent's progress
    # of every component its layer did not touch
    _reserved: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def reserved(self, prog: frozenset[int]) -> tuple[int, ...]:
        """Every qubit the pending gates `prog` may still touch (a tuple
        keeps the cache small)."""
        out = self._reserved.get(prog)
        if out is None:
            out = self._reserved[prog] = tuple(
                {q for i in prog for qs in self.qubits[i] for q in qs})
        return out


@dataclass
class _SynComp:
    """A new-style syndrome whose data qubits the search binds to the slots
    of `syndrome_lag_schedule`, a pair at each binding stage: a stage whose
    two slots no earlier stage couples (every other stage must couple two
    bound slots).  Its progress is (stage, bindings), bindings[j] being the
    (u, v) pair on `pair_slots[j]`, the j-th binding stage's slots."""
    pos: int
    clbit_offset: int
    n: int
    binding_stages: frozenset[int]
    pair_slots: tuple[tuple[int, int], ...]
    schedule: list[tuple[int, int]]   # per stage: (X slot, Z slot)
    last_stage: dict[int, int]        # per slot: its last coupling stage

    @staticmethod
    def build(pos: int, off: int, n: int) -> "_SynComp":
        sched = syndrome_lag_schedule(n)
        binding: list[int] = []
        last: dict[int, int] = {}
        for stage, (xs, zs) in enumerate(sched):
            if xs not in last and zs not in last:
                binding.append(stage)
            last[xs] = last[zs] = stage
        return _SynComp(pos, off, n, frozenset(binding),
                        tuple(sched[stage] for stage in binding), sched, last)

    def slot_qubits(self, bindings: tuple) -> dict[int, int]:
        """Slot -> data qubit for every slot bound so far."""
        out: dict[int, int] = {}
        for (su, sv), (u, v) in zip(self.pair_slots, bindings):
            out[su], out[sv] = u, v
        return out


@dataclass
class CompileTask:
    layout: IcebergLayout
    graph: ProblemGraph
    params: QaoaParams
    cfg: CompileConfig
    components: list
    final: Gadget                  # in the default order
    final_clbit_offset: int
    num_clbits: int


def _build_task(graph: ProblemGraph, params: QaoaParams,
                cfg: CompileConfig) -> CompileTask:
    """The component plan shared by both compilers: the init gadget, then
    phase/mixer layers with the syndromes at `syndrome_insertion_points`.
    A component's position is its component id; the final measurement
    takes the next one.  The plan fixes every gate's qubits, and with
    them the mixer anchors."""
    layout = cfg.check(graph)
    init_kind, syn_kind, final_kind = _gadget_kinds(cfg.gadget_set)
    lc = build_qaoa(graph, params)
    s = cfg.num_syndromes
    anchors = (layout.t, layout.b) if cfg.use_z2 else (layout.t,)

    def gadget_comp(gadget: Gadget, off: int) -> _GateComp:
        twoq = [g.qubits for g in gadget.fragment.gates if g.is_two_qubit]
        preds: list[frozenset[int]] = []
        latest: dict[int, int] = {}
        for idx, qs in enumerate(twoq):
            preds.append(frozenset(latest[q] for q in qs if q in latest))
            for q in qs:
                latest[q] = idx
        return _GateComp(len(components), gadget_role(gadget.kind),
                         [(qs,) for qs in twoq], preds, gadget=gadget,
                         clbit_offset=off)

    init = build_gadget(init_kind, layout.k, predetermine_init_order(
        graph, cfg.gadget_set) if cfg.resynthesize else None)
    syn = build_gadget(syn_kind, layout.k) if s else None

    alg: list[tuple[ComponentRole, list]] = []
    for t in range(params.p):
        alg.append((ComponentRole.PHASE_LAYER, lc.phase_layers[t]))
        alg.append((ComponentRole.MIXER_LAYER, lc.mixer_layers[t]))
    points = syndrome_insertion_points([len(g) for _, g in alg], s)

    components: list = []
    components.append(gadget_comp(init, 0))
    off = init.num_clbits       # each gadget's clbits follow the last's
    next_syn = 0
    for pos in range(len(alg) + 1):
        while next_syn < s and points[next_syn] == pos:
            if cfg.resynthesize and syn_kind is GadgetKind.SYNDROME_NEW:
                components.append(
                    _SynComp.build(len(components), off, layout.n))
            else:
                components.append(gadget_comp(syn, off))
            off += syn.num_clbits
            next_syn += 1
        if pos == len(alg):
            break
        role, gates = alg[pos]
        if role is ComponentRole.PHASE_LAYER:
            qubits = [((g.u + 1, g.v + 1),) for g in gates]
        else:
            qubits = [tuple((a, g.qubit + 1) for a in anchors)
                      for g in gates]
        components.append(_GateComp(len(components), role, qubits,
                                    [frozenset()] * len(gates), list(gates)))

    final = build_gadget(final_kind, layout.k)
    return CompileTask(layout, graph, params, cfg, components, final,
                       off, off + final.num_clbits)


# ---------------------------------------------------------------------------
# Search nodes
# ---------------------------------------------------------------------------

@dataclass
class SearchNode:
    """A prefix of scheduled layers and the per-component progress after it.

    `deg` holds the weighted degrees of the uncompiled-interaction graph,
    filled once at creation by `build_uncompiled_graph`: from scratch for a
    node without a parent, else carried from the parent's minus what this
    layer scheduled.  They are floats; the matcher (a copy of networkx
    3.6.1's) gives the same matching for int and float weights."""
    task: CompileTask
    progress: tuple        # per component
    g: int
    h: int
    parent: "SearchNode | None"
    layer_items: tuple     # items scheduled in this node's layer
    deg: dict[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.deg = build_uncompiled_graph(self)

    @property
    def f(self) -> int:
        return self.g + self.h


def _initial_progress(task: CompileTask) -> tuple:
    return tuple((0, ()) if isinstance(comp, _SynComp)    # (stage, bindings)
                 else frozenset(range(len(comp.qubits)))
                 for comp in task.components)


def _is_done(comp, prog) -> bool:
    if isinstance(comp, _SynComp):
        return prog[0] >= comp.n
    return not prog


def source_node(task: CompileTask) -> SearchNode:
    progress = _initial_progress(task)
    node = SearchNode(task, progress, 0, 0, None, ())
    node.h = heuristic_cost(node)
    return node


# -- uncompiled graph / heuristic -------------------------------------------

def _component_load(task: CompileTask, comp, prog
                    ) -> tuple[dict[int, int], int]:
    """One component's pending couplings: the count per data qubit, and
    the count on the two ancillas together."""
    layout = task.layout
    load: dict[int, int] = {}
    anc = 0
    if isinstance(comp, _GateComp):
        qubits, n = comp.qubits, layout.n
        for i in prog:
            for q in qubits[i][0]:
                if q < n:
                    load[q] = load.get(q, 0) + 1
                else:
                    anc += 1
        if prog and len(qubits[i]) == 2:
            # z2 mixers (two qubit options each, like the last gate i)
            # alternate between the top and the bottom anchor
            (top, _), (bottom, _) = qubits[i]
            load[top] -= len(prog) // 2
            load[bottom] = load.get(bottom, 0) + len(prog) // 2
    else:
        stage, bindings = prog
        if stage < comp.n:
            # a bound slot couples once per stage left; unbound qubits twice
            slot_q = comp.slot_qubits(bindings)
            for pair in comp.schedule[stage:]:
                for slot in pair:
                    if slot in slot_q:
                        q = slot_q[slot]
                        load[q] = load.get(q, 0) + 1
                        anc += 1
            bound = set(slot_q.values())
            for q in layout.data:
                if q not in bound:
                    load[q] = load.get(q, 0) + 2
                    anc += 2
    return load, anc


def build_uncompiled_graph(node: SearchNode) -> dict[int, float]:
    """Weighted degrees of the uncompiled-interaction graph.

    Vertices are the data qubits plus one merged-ancilla vertex (key -1)
    whose weight is halved: it stands for two physical collectors working
    in parallel.  The final measurement is excluded.

    A node without a parent sums `_component_load` over every component.
    A child starts from its parent's degrees and removes what its layer
    scheduled: the load of each gate with one qubit option, and the
    old-minus-new load of the component of a gate with two (a z2 mixer,
    whose top/bottom split depends on how many mixers are left) or of a
    syndrome step (a binding changes its slot map).  Degrees are whole
    numbers, so both ways give the same floats."""
    task = node.task
    parent = node.parent
    components = task.components
    n = task.layout.n

    def add(pos: int, prog, sign: int) -> None:
        nonlocal anc
        load, a = _component_load(task, components[pos], prog)
        for q, cnt in load.items():
            deg[q] += sign * cnt
        anc += sign * a

    if parent is None:
        deg = {q: 0.0 for q in task.layout.data}
        anc = 0.0
        for pos, prog in enumerate(node.progress):
            add(pos, prog, 1)
    else:
        deg = dict(parent.deg)
        anc = 2.0 * deg[-1]
        reload: set[int] = set()
        for item in node.layer_items:
            # a component's load is a sum over its gates, so a scheduled gate
            # on its one qubit option takes away its own, one per qubit (the
            # ancilla count for an ancilla); re-loading a whole phase layer
            # instead costs 3.5x the heuristic time on the benchmark
            if item[0] == "gate" and \
                    len(components[item[1]].qubits[item[2]]) == 1:
                for q in item[3]:
                    if q < n:
                        deg[q] -= 1
                    else:
                        anc -= 1
            else:
                reload.add(item[1])
        for pos in reload:
            add(pos, parent.progress[pos], -1)
            add(pos, node.progress[pos], 1)
    deg[-1] = anc / 2.0
    return deg


def heuristic_cost(node: SearchNode) -> int:
    """Max weighted degree of the uncompiled graph (the depth estimate)."""
    return math.ceil(max(node.deg.values()) - 1e-9)


# -- executable graph ---------------------------------------------------------

@dataclass
class ExecutableGraph:
    edges: dict[frozenset[int], tuple]    # pair -> payload
    weights: dict[frozenset[int], float]
    forced: list[tuple]                   # payloads scheduled regardless
    forced_qubits: frozenset[int]


def build_executable_graph(node: SearchNode) -> ExecutableGraph:
    task = node.task
    layout = task.layout
    deg = node.deg
    anc = deg[-1]      # an ancilla's weight: the merged-ancilla vertex's
    free: set[int] = set(range(layout.num_qubits))
    edges: dict[frozenset[int], tuple] = {}
    weights: dict[frozenset[int], float] = {}
    forced: list[tuple] = []
    forced_qubits: set[int] = set()

    def add_edge(qs: tuple[int, int], payload: tuple) -> None:
        pair = frozenset(qs)
        if pair not in edges:
            edges[pair] = payload
            weights[pair] = deg.get(qs[0], anc) + deg.get(qs[1], anc)

    for comp, prog in zip(task.components, node.progress):
        if not free:
            break
        if _is_done(comp, prog):
            continue
        if isinstance(comp, _GateComp):
            reserved = comp.reserved(prog)
            if free.isdisjoint(reserved):
                continue    # every qubit it may touch is reserved already
            qubits, preds = comp.qubits, comp.preds
            for i in sorted(prog):
                # a gate is ready once none of its predecessors is pending
                if preds[i] and not preds[i].isdisjoint(prog):
                    continue
                for qs in qubits[i]:
                    if free.issuperset(qs):
                        add_edge(qs, ("gate", comp.pos, i, qs))
            # reserve every qubit the unfinished component may still touch
            free.difference_update(reserved)
        else:
            stage, bindings = prog
            slot_q = comp.slot_qubits(bindings)
            ax, az = layout.ancilla0, layout.ancilla1
            if ax not in free or az not in free:
                pass  # ancillas blocked by an earlier unfinished component
            elif stage in comp.binding_stages:
                bound = set(slot_q.values())
                eligible = sorted(
                    (q for q in layout.data if q in free and q not in bound),
                    key=lambda q: (-deg.get(q, 0.0), q),
                )
                if len(eligible) >= 2:
                    u, v = eligible[0], eligible[1]
                    add_edge((u, v), ("bind", comp.pos, (u, v)))
            else:
                xs, zs = comp.schedule[stage]
                qx, qz = slot_q[xs], slot_q[zs]
                forced.append(("synstep", comp.pos, (qx, qz)))
                forced_qubits |= {qx, qz, ax, az}
                free -= {qx, qz}
            # reserve: ancillas and every data qubit still owing couplings;
            # a bound qubit is finished once its slot's last stage has run
            finished = {q for slot, q in slot_q.items()
                        if comp.last_stage[slot] < stage}
            for q in layout.data:
                if q not in finished:
                    free.discard(q)
            free.discard(ax)
            free.discard(az)
    return ExecutableGraph(edges, weights, forced, frozenset(forced_qubits))


# -- expansion ----------------------------------------------------------------

def _matcher_input(exe: ExecutableGraph) -> list[tuple[int, int, float]]:
    """The pairs that miss every forced qubit, as `(a, b, weight)` with
    a < b, sorted once: each layer's graph is this list without the pairs
    earlier layers removed."""
    return sorted((*sorted(p), exe.weights[p]) for p in exe.edges
                  if not (p & exe.forced_qubits))


def _matchings(exe: ExecutableGraph, width: int, avail: list | None = None
               ) -> list[list[frozenset[int]]]:
    """Up to `width` layers of distinct maximum-weight matchings of the
    matcher input `avail` (`_matcher_input(exe)` when not given), or `[[]]`
    when it is empty.  Each layer takes its own `layer[0]` out of `avail`,
    so a caller can hand the same list back for the next layer."""
    if avail is None:
        avail = _matcher_input(exe)
    if not avail:
        return [[]]
    out: list[list[frozenset[int]]] = []
    for _ in range(width):
        if not avail:
            break
        # every weight counts the edge's own pending gate, so it is positive
        # and a maximum-weight matching is maximal (and not empty)
        match = max_weight_matching(avail)
        layer = sorted((frozenset(e) for e in match),
                       key=lambda p: (-exe.weights[p], tuple(sorted(p))))
        # each earlier layer holds its own layer[0], now removed, so this
        # layer differs from all of them
        out.append(layer)
        avail.remove((*sorted(layer[0]), exe.weights[layer[0]]))
    return out


class _Children(Sequence):
    """The children of one expansion, made one matching at a time: child j
    schedules the forced items and the j-th layer of `_matchings`, and is
    made the first time an index reaches it.  Iterating makes them all,
    in order, as a list of them would hold them."""

    def __init__(self, node: SearchNode, exe: ExecutableGraph, width: int):
        self.node, self.exe, self.width = node, exe, width
        self.avail = _matcher_input(exe)
        self.made: list[SearchNode] = []

    @property
    def more(self) -> bool:
        """Whether another child is left to make.  The first always is: a
        node with no pair and no forced item raises in `expand`."""
        return len(self.made) < self.width and \
            (not self.made or bool(self.avail))

    def make(self) -> SearchNode:
        """Make the next child (`more` must hold)."""
        exe = self.exe
        layer = _matchings(exe, 1, self.avail)[0]
        child = _apply_layer(self.node, (*exe.forced,
                                         *map(exe.edges.__getitem__, layer)))
        self.made.append(child)
        return child

    def __getitem__(self, j: int) -> SearchNode:
        if j < 0:
            j += len(self)
        while len(self.made) <= j and self.more:
            self.make()
        if not 0 <= j < len(self.made):
            raise IndexError("child index out of range")
        return self.made[j]

    def __len__(self) -> int:
        while self.more:
            self.make()
        return len(self.made)

    def bound(self) -> int:
        """A lower bound hb on the h of every child still to make, from the
        node's degrees, the forced items and the pairs left in the matcher
        input (`avail`): each child's layer takes its pairs from what is
        left of `avail` when it is made, and `make` only removes from it.

        A layer touches each qubit at most once, and it lowers a vertex's
        degree only where it schedules a coupling of that vertex, by one
        per coupling, or where it re-splits a z2 mixer layer's load.  So
        no child's degree of v is below deg_v less the touches v may take:
        one for a data qubit on an available pair or among the forced
        qubits.  A z2 mixer's component splits its load between t and b by
        the parity of the mixers left, whichever anchor the mixer runs on;
        so while a z2 mixer pair is available t and b take one touch each,
        and two when another pair or forced item can touch an anchor too.
        The merged-ancilla vertex, at half weight, takes one if an ancilla
        lies on an available pair or among the forced qubits (a forced
        syndrome step puts both there) or a bind pair is available (a bind
        couples both ancillas though its pair names two data qubits)."""
        node, exe = self.node, self.exe
        layout = node.task.layout
        components = node.task.components
        t, b, n = layout.t, layout.b, layout.n
        forced = exe.forced_qubits
        touched = set(forced)
        z2, other, bind = False, bool(forced & {t, b}), False
        for u, v, _ in self.avail:
            pair = frozenset((u, v))
            item = exe.edges[pair]
            touched |= pair
            if item[0] == "bind":
                bind = True
            elif len(components[item[1]].qubits[item[2]]) == 2:
                z2 = True
                continue
            if t in pair or b in pair:
                other = True
        drop = dict.fromkeys(touched, 1)
        if z2:
            drop[t] = drop[b] = 2 if other else 1
        drop[-1] = int(bind or any(q >= n for q in touched))
        return math.ceil(max(d - drop.get(q, 0) for q, d in node.deg.items())
                         - 1e-9)


def expand(node: SearchNode, width: int = EXPANSION_WIDTH
           ) -> Sequence[SearchNode]:
    """The up to `width` children of `node`, made as they are indexed (see
    `_Children`); none at the goal.  Raises CompileError "search stalled"
    when the executable graph has no pair and no forced item."""
    if is_goal(node):
        return []
    exe = build_executable_graph(node)
    children = _Children(node, exe, width)
    if not children.avail and not exe.forced:
        raise CompileError("search stalled: no executable gates and not at goal")
    return children


def _apply_layer(node: SearchNode, items: tuple) -> SearchNode:
    task = node.task
    progress = list(node.progress)
    for item in items:
        kind = item[0]
        pos = item[1]
        if kind == "gate":
            progress[pos] = progress[pos] - {item[2]}
        elif kind == "bind":
            stage, bindings = progress[pos]
            progress[pos] = (stage + 1, bindings + (item[2],))
        elif kind == "synstep":
            stage, bindings = progress[pos]
            progress[pos] = (stage + 1, bindings)
    child = SearchNode(task, tuple(progress), node.g + 1, 0, node, items)
    child.h = heuristic_cost(child)
    return child


def is_goal(node: SearchNode) -> bool:
    return all(_is_done(c, p) for c, p in zip(node.task.components, node.progress))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _collect_layers(node: SearchNode) -> list[tuple]:
    chain = []
    cur = node
    while cur.parent is not None:
        chain.append(cur.layer_items)
        cur = cur.parent
    chain.reverse()
    return chain


def append_final_measurement(task: CompileTask, qubit_free_layer: dict[int, int]
                             ) -> Gadget:
    """Pick the final gadget's implicit order greedily: qubits that idle
    earliest are read out (coupled) first."""
    if not task.cfg.resynthesize:
        return task.final
    layout = task.layout
    order = tuple(sorted(layout.data,
                         key=lambda q: (qubit_free_layer.get(q, 0), q)))
    return build_gadget(task.final.kind, layout.k, order)


def _emit(node: SearchNode) -> EncodedCircuit:
    task = node.task
    layout = task.layout
    layers = _collect_layers(node)

    # entries: [(sort_key, Gate)]; phase and mixer gates go in directly,
    # fragment 2Q steps are mapped to their layers first
    entries: list[tuple[tuple, Gate]] = []
    seq = itertools.count()
    checks: list[ParityCheck] = []
    frag_gate_layer: dict[tuple[int, int], int] = {}
    syn_step_counter: dict[int, int] = {}
    qubit_free_layer: dict[int, int] = {}
    for L, items in enumerate(layers):
        for item in items:
            kind, pos = item[0], item[1]
            comp = task.components[pos]
            if kind in ("bind", "synstep"):
                step = syn_step_counter.get(pos, 0)
                frag_gate_layer[(pos, 2 * step)] = L
                frag_gate_layer[(pos, 2 * step + 1)] = L
                syn_step_counter[pos] = step + 1
                qubits = item[2]       # the bound pair or (qx, qz)
            else:
                qubits = item[3]
                if comp.gadget is None:
                    entries.append(((L, 1, next(seq)),
                                    _rotation_gate(comp, item[2], qubits)))
                else:
                    frag_gate_layer[(pos, item[2])] = L
            for q in qubits:
                qubit_free_layer[q] = L + 1

    component_roles: dict[int, ComponentRole] = {}
    for comp, prog in zip(task.components, node.progress):
        pos = comp.pos
        if isinstance(comp, _SynComp):
            slot_q = comp.slot_qubits(prog[1])
            gadget = build_gadget(GadgetKind.SYNDROME_NEW, layout.k,
                                  tuple(slot_q[i] for i in range(comp.n)))
        elif comp.gadget is None:
            component_roles[pos] = comp.role
            continue
        else:
            gadget = comp.gadget
        gates, gchecks, _ = _rebase(gadget, comp.clbit_offset, pos)
        checks.extend(gchecks)
        component_roles[pos] = gadget_role(gadget.kind)
        # the i-th 2Q gate of the fragment is the component's i-th
        # scheduled 2Q step
        frag = gadget.fragment.gates
        twoq_layer = {fi: frag_gate_layer[(pos, idx)] for idx, fi in
                      enumerate(fi for fi, g in enumerate(frag)
                                if g.is_two_qubit)}
        for fi, L in twoq_layer.items():
            entries.append(((L, 1, next(seq)), gates[fi]))
        # weave: a 1Q gate rides with the next 2Q gate on its qubit, else
        # trails after the previous one (no gadget has a barrier, or a 1Q
        # gate on a qubit its fragment never couples)
        nxt: dict[int, int] = {}          # qubit -> layer of its next 2Q gate
        rides: dict[int, int] = {}
        for fi in range(len(frag) - 1, -1, -1):
            if fi in twoq_layer:
                for q in frag[fi].qubits:
                    nxt[q] = twoq_layer[fi]
            elif frag[fi].qubits[0] in nxt:
                rides[fi] = nxt[frag[fi].qubits[0]]
        prv: dict[int, int] = {}          # qubit -> layer of its last 2Q gate
        for fi, g in enumerate(frag):
            if fi in twoq_layer:
                for q in g.qubits:
                    prv[q] = twoq_layer[fi]
            elif fi in rides:
                entries.append(((rides[fi], 0, fi), gates[fi]))
            else:
                entries.append(((prv[g.qubits[0]], 2, fi), gates[fi]))

    # final measurement, appended after everything
    final_g = append_final_measurement(task, qubit_free_layer)
    fgates, fchecks, fdecode = _rebase(final_g, task.final_clbit_offset,
                                       len(task.components))
    checks.extend(fchecks)
    component_roles[len(task.components)] = gadget_role(final_g.kind)
    L_end = len(layers)
    for g in fgates:
        entries.append(((L_end, 1, next(seq)), g))

    entries.sort(key=lambda e: e[0])
    circ = PhysicalCircuit(layout.num_qubits, task.num_clbits)
    for cidx in sorted(component_roles):
        circ.begin_component(cidx, component_roles[cidx])
    for _, g in entries:
        circ.add(g)
    enc = EncodedCircuit(circ, layout, tuple(checks), fdecode, task.graph,
                         task.params, task.cfg, mode="coopt")
    enc.meta["depth_2q"] = two_qubit_depth(circ)
    enc.meta["twoq_gates"] = circ.two_qubit_gate_count()
    enc.meta["search_layers"] = len(layers)
    return enc


# ---------------------------------------------------------------------------
# Search driver: best first within the budget, then one greedy rollout
# ---------------------------------------------------------------------------

def compile_cooptimized(graph: ProblemGraph, params: QaoaParams,
                        cfg: CompileConfig) -> EncodedCircuit:
    """Co-compile best first within `cfg.queue_cap` expansions, then finish
    with a greedy rollout (see the module docstring).

    The open list holds nodes keyed (f, h, -g, counter) and, per expanded
    node with children still to make, one lazy entry keyed (g+1+hb, hb,
    -(g+1), counter), hb being `_Children.bound`.  An expansion reserves
    `EXPANSION_WIDTH` consecutive counters, child j taking the j-th, and
    its lazy entry carries the counter of the next child to make.  Popping
    it makes that child, pushes it under its own key unless its progress
    was seen, and pushes the entry of the next child, if any, under a
    fresh bound: the spent key's hb counted the pairs the made child took
    out of the matcher input, and the later children cannot use them.  An
    expansion raises CompileError ("search stalled") when the executable
    graph has no pair and no forced item.

    Nodes pop in the order of the search that pushes every child when it
    expands its parent.  A lazy key is at most the key of each child it
    stands for (its h is at least hb, and its counter at least the
    entry's), so no node pops while a child that would precede it is
    unmade.  Counters are unique and in that search's push order, so ties
    break alike.  A child whose progress is seen when it is made would only
    have been skipped when popped."""
    task = _build_task(graph, params, cfg)
    start = source_node(task)
    tick = 0            # the next unreserved counter
    heap: list[tuple] = [(start.f, start.h, -start.g, tick, start)]
    tick += 1
    seen: set = set()
    expanded = 0
    # the heap cannot run empty: a popped node that is not the goal has
    # children (expand raises otherwise), each a layer further on, so every
    # path of states from `start` ends at the goal
    while True:
        _, _, g, count, node = heapq.heappop(heap)
        if isinstance(node, _Children):
            # a lazy entry: make the child it stands for, under its counter
            child = node.make()
            if child.progress not in seen:
                heapq.heappush(heap, (child.f, child.h, -child.g, count,
                                      child))
            if node.more:
                hb = node.bound()       # g is the children's -(g+1)
                heapq.heappush(heap, (hb - g, hb, g, count + 1, node))
            continue
        if node.progress in seen:
            continue
        seen.add(node.progress)
        if is_goal(node) or expanded == cfg.queue_cap:
            break
        expanded += 1
        children = expand(node)
        hb = children.bound()
        heapq.heappush(heap, (node.g + 1 + hb, hb, -(node.g + 1), tick,
                              children))
        tick += EXPANSION_WIDTH
    exhausted = not is_goal(node)
    # out of budget: greedy rollout from the node the search stopped on
    while not is_goal(node):
        node = expand(node, width=1)[0]
    enc = _emit(node)
    enc.meta["expanded_nodes"] = expanded
    enc.meta["budget_exhausted"] = exhausted
    enc.meta["h_source"] = start.h
    return enc


# ---------------------------------------------------------------------------
# Serialization of compiled circuits with their classical maps
# ---------------------------------------------------------------------------

def write_encoded(enc: EncodedCircuit) -> str:
    parts = [write_circuit(enc.circuit)]
    for c in enc.checks:
        bits = " ".join(f"c{b}" for b in sorted(c.bits))
        parts.append(f"check {bits} = {c.expected}\n")
    for i in sorted(enc.decode):
        bits = " ^ ".join(f"c{b}" for b in sorted(enc.decode[i]))
        parts.append(f"logical {i} = {bits}\n")
    return "".join(parts)


def _clbits(toks: list[str]) -> frozenset[int]:
    """The clbits of a parity; a repeated one would cancel out of it."""
    out = set()
    for t in toks:
        m = re.fullmatch(r"c([0-9]+)", t)
        if m is None:
            raise CircuitError(f"expected a classical bit c<int>, got {t!r}")
        b = int(m.group(1))
        if b in out:
            raise CircuitError(f"c{b} is repeated: a parity holds each "
                               f"clbit once")
        out.add(b)
    return frozenset(out)


def read_encoded(text: str):
    """Parse circuit text with `check cA cB ... = 0|1` and
    `logical i = cA ^ cB ...` lines.

    Returns (circuit, checks, decode).  A malformed line, a logical
    numbered below 1, a clbit repeated within one line, or a check or
    decode bit the circuit does not have, raises CircuitError naming the
    line, as `read_circuit` does."""
    circuit_lines = []
    checks: list[ParityCheck] = []
    decode: dict[int, frozenset[int]] = {}
    top: list[tuple[int, int]] = []    # (line, its highest clbit)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if not tok or tok[0] not in ("check", "logical"):
            circuit_lines.append(raw)
            continue
        # keep the circuit's own line numbers
        circuit_lines.append("")
        try:
            if tok[0] == "check":
                if tok.count("=") != 1 or tok[-2] != "=" \
                        or tok[-1] not in ("0", "1"):
                    raise CircuitError("a check is 'check cA cB ... = 0|1'")
                bits = _clbits(tok[1:-2])
                checks.append(ParityCheck(bits, int(tok[-1])))
            else:
                terms = tok[3:]
                if len(tok) < 3 or tok[2] != "=" \
                        or not re.fullmatch("[0-9]+", tok[1]) \
                        or any(t != "^" for t in terms[1::2]) \
                        or (terms and len(terms) % 2 == 0):
                    raise CircuitError("a decode line is "
                                       "'logical i = cA ^ cB ...'")
                i = int(tok[1])
                if i < 1:
                    raise CircuitError(f"logical {i}: logicals are numbered "
                                       f"from 1")
                if i in decode:
                    raise CircuitError(f"logical {i} decoded twice")
                bits = decode[i] = _clbits(terms[0::2])
            top.append((lineno, max(bits, default=-1)))
        except CircuitError as e:
            raise CircuitError(f"line {lineno}: {e}") from None
    circuit = read_circuit("\n".join(circuit_lines))
    for lineno, b in top:
        if b >= circuit.num_clbits:
            raise CircuitError(f"line {lineno}: c{b} is not a clbit of the "
                               f"circuit, which has {circuit.num_clbits}")
    return circuit, tuple(checks), decode

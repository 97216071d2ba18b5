"""Superbox compilation: fuse linear operator chains into batch kernels.

Section 2.3 frames train scheduling as deciding "how many of the
tuples ... to process and how far to push them toward the output"; the
logical endpoint of pushing a train all the way is to *compile* the
push.  A maximal linear run of stateless, order-preserving, single-in/
single-out boxes (Filter, Map, CaseFilter) becomes one **superbox**: a
:class:`FusedChain` that threads a whole train through every
constituent kernel in a single pass, so the interior arcs see no deque
traffic, no ``queue_times`` stamping, no per-hop claim/emit bookkeeping
— the intra-node analogue of kernel fusion in modern dataflow engines.

Eligibility (where a run stops):

* only ``fusable`` operators with ``arity == 1`` and no cross-tuple
  state may be members; a multi-output member (CaseFilter, Filter with
  a false port) can only be the *tail* of its run;
* a stateful *windowed* operator with a columnar kernel (Tumble, Slide,
  WSort — ``supports_columnar`` and ``arity == 1``) may terminate a run
  as its tail: the window state lives in the ground-truth operator, so
  defusion still needs no hand-back, and a claimed train reaches the
  window kernel without materializing on an interior arc;
* fan-out (an output port feeding several arcs) and fan-in (Union,
  Join) break the run;
* arcs bearing a connection point are never interior — ad-hoc queries
  attach there and must keep seeing every tuple;
* arcs with queued tuples are never fused over (nothing may be hidden
  from the scheduler's view of backlog);
* with a ``same_node`` predicate (Aurora*), arcs crossing node
  boundaries break the run;
* boxes in ``protect`` (e.g. currently-migrating boxes) never join.

Fusion is an execution *overlay*, not a network rewrite: constituent
:class:`~repro.core.query.Box` objects and their arcs stay registered
in the network, so reachability queries, ``queued_work()``, QoS
inference, storage rebalancing and run-time rewrites (sliding,
splitting, re-optimization, ad-hoc attach) all keep operating on the
ground-truth graph.  The engine simply schedules the run as one unit
(under the head box's id) and keeps *logical* attribution: per-
constituent ``tuples_in/out``, ``busy_time``, latency sums, obs
counters and trace spans are emitted exactly as the unfused network
would emit them.  ``defuse()`` is therefore trivially safe at any
scheduling boundary: a fused train always runs through every stage, so
interior arcs are empty by construction and any queued tuples are
already sitting at the superbox input (the head's input arc).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.columnar import ColumnarTrain
from repro.core.operators.base import Operator
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.query import Arc, Box, QueryNetwork
from repro.core.tuples import StreamTuple

Kernel = Callable[[list[StreamTuple]], list[StreamTuple]]
ColumnarKernel = Callable[[ColumnarTrain], ColumnarTrain]
Batch = Union[ColumnarTrain, list[StreamTuple]]
Account = Callable[[int, Box, Batch], None]


def chainable(box: Box) -> bool:
    """True if ``box`` may be a member of a fused run."""
    operator = box.operator
    return operator.fusable and operator.arity == 1 and not operator.stateful


def _interior_kernel(operator: Operator) -> Kernel:
    """A batch kernel for an interior (single-output) stage.

    Takes and returns plain tuple lists — the port wrapper is dropped
    because every interior emission is on port 0.  Filter and Map get
    dedicated kernels that skip the ``(port, tuple)`` boxing entirely;
    anything else (e.g. a single-predicate CaseFilter, whose ``routed``
    counters must keep advancing) goes through its own
    ``process_batch``, which is exactly equivalent by contract.
    """
    if type(operator) is Filter and not operator.with_false_port:
        predicate = operator.predicate

        def filter_kernel(batch: list[StreamTuple]) -> list[StreamTuple]:
            return [t for t in batch if predicate(t)]

        return filter_kernel
    if type(operator) is Map:
        func = operator.func
        make = StreamTuple

        def map_kernel(batch: list[StreamTuple]) -> list[StreamTuple]:
            return [
                make(func(t.values), timestamp=t.timestamp, seq=t.seq,
                     origin=t.origin, trace=t.trace)
                for t in batch
            ]

        return map_kernel
    process_batch = operator.process_batch

    def generic_kernel(batch: list[StreamTuple]) -> list[StreamTuple]:
        return [t for _port, t in process_batch(batch, port=0)]

    return generic_kernel


def _interior_columnar_kernel(operator: Operator) -> Optional[ColumnarKernel]:
    """A columnar kernel for an interior stage, or None if unsupported.

    Filter and Map with compiled bodies get direct mask/column kernels
    (no emission boxing at all); other columnar-capable single-output
    operators (e.g. a one-predicate CaseFilter, whose routing counters
    must advance) go through their own ``process_columnar``.  A None
    return makes the fused runner materialize the train before this
    stage and continue on the list kernels.
    """
    if not operator.supports_columnar:
        return None
    if type(operator) is Filter and not operator.with_false_port:
        predicate = operator.predicate

        def filter_kernel(train: ColumnarTrain) -> ColumnarTrain:
            mask = predicate.mask(train)  # type: ignore[union-attr]
            if mask.all():
                return train
            return train.select(mask)

        return filter_kernel
    if type(operator) is Map:
        func = operator.func

        def map_kernel(train: ColumnarTrain) -> ColumnarTrain:
            return func.evaluate(train)  # type: ignore[union-attr]

        return map_kernel
    process_columnar = operator.process_columnar

    def generic_kernel(train: ColumnarTrain) -> ColumnarTrain:
        emissions = process_columnar(train, port=0)
        if not emissions:
            return train.slice(0, 0)
        return emissions[0][1]

    return generic_kernel


class FusedChain:
    """A run of boxes executed as one unit: a superbox, or one box alone.

    Holds the original :class:`~repro.core.query.Box` objects (the
    *stages*) — never copies of them — so all statistics accumulated
    while fused are attributed to the constituents, and defusion needs
    no state hand-back.  An unfused box is a run of length one, so the
    engine and the Aurora* node thread every train through :meth:`run`.
    ``cost_per_tuple`` is the summed chain cost (the superbox's cost
    model); the scheduler-facing backlog signal stays the head's, since
    only the head's arc ever holds tuples.
    """

    def __init__(self, boxes: list[Box]):
        stages = list(boxes)
        self.stages = stages
        self.cost_per_tuple = sum(b.operator.cost_per_tuple for b in stages)
        self.interior_kernels = [
            _interior_kernel(b.operator) for b in stages[:-1]
        ]
        # Columnar overlays: None entries mark the first stage at which
        # a columnar train must materialize back to a tuple list (the
        # run then falls through to interior_kernels).
        self.columnar_kernels: list[Optional[ColumnarKernel]] = [
            _interior_columnar_kernel(b.operator) for b in stages[:-1]
        ]

    @property
    def head(self) -> Box:
        return self.stages[0]

    @property
    def tail(self) -> Box:
        return self.stages[-1]

    def member_ids(self) -> list[str]:
        return [box.id for box in self.stages]

    def interior_arcs(self) -> list[Arc]:
        """The (inert while fused) arcs between consecutive stages."""
        return [box.input_arcs[0] for box in self.stages[1:]]

    def run(
        self, batch: Batch, port: int, account: Account
    ) -> tuple[list, bool]:
        """Thread one claimed train through every stage.

        ``account(index, box, batch)`` charges each stage for the train
        entering it, before the stage's kernel runs (so trace spans
        stamped there are inherited by the emissions).  A columnar train
        runs each interior stage's column kernel, materializes once at
        the first stage without one and continues on the list kernels;
        the tail runs ``process_columnar`` while the train is still
        columnar and the operator has that kernel, else
        ``process_batch``.  Per-stage ``tuples_in``/``tuples_out`` are
        updated here.  ``port`` is the head's claimed input port — only
        a run of length one can have a port other than 0.

        Returns the tail's emissions and whether they are columnar
        ``(port, ColumnarTrain)`` pairs rather than ``(port, tuple)``.
        """
        stages = self.stages
        last = len(stages) - 1
        for index in range(last):
            count = len(batch)
            if not count:
                return [], False
            box = stages[index]
            account(index, box, batch)
            box.tuples_in += count
            if isinstance(batch, ColumnarTrain):
                kernel = self.columnar_kernels[index]
                if kernel is not None:
                    batch = kernel(batch)
                else:
                    batch = self.interior_kernels[index](batch.to_tuples())
            else:
                batch = self.interior_kernels[index](batch)
            box.tuples_out += len(batch)
        count = len(batch)
        if not count:
            return [], False
        tail = stages[last]
        account(last, tail, batch)
        tail.tuples_in += count
        operator = tail.operator
        if isinstance(batch, ColumnarTrain):
            if operator.supports_columnar:
                trains = operator.process_columnar(batch, port=port)
                tail.tuples_out += sum(len(train) for _p, train in trains)
                return trains, True
            # Operator barrier (stateful or opaque): materialize at the
            # tail and run the exact-equivalent list batch kernel.
            batch = batch.to_tuples()
        emissions = operator.process_batch(batch, port=port)
        tail.tuples_out += len(emissions)
        return emissions, False

    def describe(self) -> str:
        return "FusedChain(" + " -> ".join(b.id for b in self.stages) + ")"


class FusionOverlay:
    """The superbox overlay a runtime holds over its network.

    Maps each fused run's head to its :class:`FusedChain` and every
    member to its head.  The engine and the Aurora* system each hold
    one, rebuild it from :func:`find_runs` whenever topology (or
    placement) changes, and dissolve it with :meth:`defuse` before any
    run-time rewrite touches a fused box.
    """

    def __init__(self) -> None:
        self.chains: dict[str, FusedChain] = {}
        self.members: dict[str, str] = {}
        self._singles: dict[str, FusedChain] = {}

    def rebuild(self, network: QueryNetwork, runs: list[list[str]]) -> None:
        """Compile ``runs`` (box-id lists in flow order) from scratch."""
        self.chains = {}
        self.members = {}
        self._singles = {}
        for run in runs:
            self.chains[run[0]] = FusedChain([network.boxes[b] for b in run])
            for member in run:
                self.members[member] = run[0]

    def defuse(self, box_id: str | None = None) -> None:
        """Dissolve superboxes — all of them, or the one containing ``box_id``.

        Safe at any scheduling boundary: fusion never removed the
        constituent boxes or arcs from the network (it only redirects
        execution), a fused train always runs through every stage so
        interior arcs are empty, and any queued tuples already sit on
        the superbox input — the head box's own input arc.  Dropping
        the overlay therefore restores per-box execution with no state
        hand-back.
        """
        if box_id is None:
            self.chains = {}
            self.members = {}
            return
        head = self.members.get(box_id)
        if head is None:
            return
        for stage in self.chains.pop(head).stages:
            self.members.pop(stage.id, None)

    def fused_runs(self) -> list[list[str]]:
        """Box-id runs currently compiled into superboxes (length >= 2)."""
        return [chain.member_ids() for chain in self.chains.values()]

    def run_of(self, box: Box) -> FusedChain:
        """The superbox headed by ``box``, else ``box`` as a run of one."""
        chain = self.chains.get(box.id)
        if chain is None:
            chain = self._singles.get(box.id)
            if chain is None or chain.stages[0] is not box:
                chain = self._singles[box.id] = FusedChain([box])
        return chain


SameNode = Callable[[str, str], bool]


def _fusable_link(
    network: QueryNetwork,
    box: Box,
    same_node: SameNode | None,
    protect: frozenset[str],
) -> Box | None:
    """The next member of ``box``'s run, or None if the run ends here."""
    if box.operator.n_outputs != 1:
        return None
    arcs = box.output_arcs.get(0, [])
    if len(arcs) != 1:
        return None
    arc = arcs[0]
    if arc.connection_point is not None or arc.queue:
        return None
    kind, _ref = arc.target
    if kind == "out":
        return None
    succ = network.boxes[str(kind)]
    if not chainable(succ) or succ.id in protect:
        return None
    if same_node is not None and not same_node(box.id, succ.id):
        return None
    return succ


def _window_tail(
    network: QueryNetwork,
    box: Box,
    same_node: SameNode | None,
    protect: frozenset[str],
) -> Box | None:
    """A stateful windowed-kernel successor that may terminate the run.

    Mirrors :func:`_fusable_link`'s arc checks (single output arc, no
    connection point, no queued backlog, same node) but accepts a
    stateful single-input successor that ships its own columnar window
    kernel — it becomes the run's tail and the run stops there.
    """
    if box.operator.n_outputs != 1:
        return None
    arcs = box.output_arcs.get(0, [])
    if len(arcs) != 1:
        return None
    arc = arcs[0]
    if arc.connection_point is not None or arc.queue:
        return None
    kind, _ref = arc.target
    if kind == "out":
        return None
    succ = network.boxes[str(kind)]
    operator = succ.operator
    if (
        not operator.stateful
        or operator.arity != 1
        or not operator.supports_columnar
        or succ.id in protect
    ):
        return None
    if same_node is not None and not same_node(box.id, succ.id):
        return None
    return succ


def _upstream_member(
    network: QueryNetwork,
    box: Box,
    same_node: SameNode | None,
    protect: frozenset[str],
) -> Box | None:
    """The box whose run ``box`` belongs to the middle of, if any."""
    arc = box.input_arcs.get(0)
    if arc is None or arc.source[0] == "in":
        return None
    source = network.boxes.get(str(arc.source[0]))
    if source is None or not chainable(source) or source.id in protect:
        return None
    if _fusable_link(network, source, same_node, protect) is box:
        return source
    return None


def find_runs(
    network: QueryNetwork,
    *,
    same_node: SameNode | None = None,
    protect: frozenset[str] = frozenset(),
) -> list[list[str]]:
    """Maximal fusable runs (length >= 2), as box-id lists in flow order.

    Runs are discovered from their heads in topological order, so the
    result is deterministic for a given network.
    """
    runs: list[list[str]] = []
    assigned: set[str] = set()
    for box_id in network.topological_order():
        if box_id in assigned:
            continue
        box = network.boxes[box_id]
        if not chainable(box) or box_id in protect:
            continue
        if _upstream_member(network, box, same_node, protect) is not None:
            continue  # interior or tail of a run found via its head
        run = [box_id]
        current = box
        while True:
            succ = _fusable_link(network, current, same_node, protect)
            if succ is None:
                break
            run.append(succ.id)
            current = succ
        # A trailing windowed kernel (stateful, columnar-capable) may
        # close the run; _window_tail rejects multi-output last members
        # (those already ended the run as its tail).
        tail = _window_tail(network, current, same_node, protect)
        if tail is not None and tail.id not in assigned:
            run.append(tail.id)
        if len(run) >= 2:
            runs.append(run)
            assigned.update(run)
    return runs

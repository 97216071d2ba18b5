"""Unit tests for superbox compilation (repro.core.fusion)."""

import pytest

from repro.core.engine import AuroraEngine
from repro.core.fusion import FusedChain, FusionOverlay, chainable, find_runs
from repro.core.operators.case_filter import CaseFilter
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple, make_stream


def pipeline(n_stages=3):
    """in:src -> f0 -> f1 -> ... -> out:sink, all fusable."""
    net = QueryNetwork()
    prev = "in:src"
    for i in range(n_stages):
        box_id = f"f{i}"
        if i % 2 == 0:
            net.add_box(box_id, Filter(lambda t: t["A"] % 7 != 0))
        else:
            net.add_box(box_id, Map(lambda v: {"A": v["A"] + 1}))
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:sink")
    return net


class TestEligibility:
    def test_chainable_flags(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("m", Map(lambda v: v))
        net.add_box("c", CaseFilter([lambda t: True]))
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.add_box("u", Union(2))
        assert chainable(net.boxes["f"])
        assert chainable(net.boxes["m"])
        assert chainable(net.boxes["c"])
        assert not chainable(net.boxes["t"])  # stateful
        assert not chainable(net.boxes["u"])  # arity 2

    def test_linear_pipeline_is_one_run(self):
        runs = find_runs(pipeline(4))
        assert runs == [["f0", "f1", "f2", "f3"]]

    def test_single_box_never_fuses(self):
        assert find_runs(pipeline(1)) == []

    def test_stateful_box_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.add_box("m", Map(lambda v: v))
        net.add_box("g", Filter(lambda t: True))
        net.connect("in:src", "f")
        net.connect("f", "t")
        net.connect("t", "m")
        net.connect("m", "g")
        net.connect("g", "out:sink")
        # A windowed box with a columnar kernel may *terminate* a run
        # (window-tail extension) but never sits in its interior — the
        # downstream stateless pair still forms its own run.
        assert find_runs(net) == [["f", "t"], ["m", "g"]]

    def test_stateful_box_never_interior(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.add_box("m", Map(lambda v: v))
        net.connect("in:src", "f")
        net.connect("f", "t")
        net.connect("t", "m")
        net.connect("m", "out:sink")
        runs = find_runs(net)
        for run in runs:
            assert "t" not in run[:-1]

    def test_fan_out_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("a", Map(lambda v: v))
        net.add_box("b", Map(lambda v: v))
        net.connect("in:src", "f")
        net.connect("f", "a", arc_id="fa")
        net.connect("f", "b", arc_id="fb")
        net.connect("a", "out:x")
        net.connect("b", "out:y")
        # f has two consumers on port 0: no interior link through it.
        assert find_runs(net) == []

    def test_fan_in_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("g", Filter(lambda t: True))
        net.add_box("u", Union(2))
        net.add_box("m", Map(lambda v: v))
        net.connect("in:a", "f")
        net.connect("in:b", "g")
        net.connect("f", ("u", 0))
        net.connect("g", ("u", 1))
        net.connect("u", "m")
        net.connect("m", "out:sink")
        # Union is not chainable (arity 2); nothing on either side fuses.
        assert find_runs(net) == []

    def test_connection_point_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("m", Map(lambda v: v))
        net.add_box("g", Filter(lambda t: True))
        net.connect("in:src", "f")
        net.connect("f", "m", connection_point=True)
        net.connect("m", "g")
        net.connect("g", "out:sink")
        assert find_runs(net) == [["m", "g"]]

    def test_queued_interior_arc_breaks_run(self):
        net = pipeline(3)
        # Park a tuple on the f1 -> f2 arc: the link is not fusable
        # until the queue drains.
        arc = net.boxes["f2"].input_arcs[0]
        arc.push(StreamTuple({"A": 1}))
        assert find_runs(net) == [["f0", "f1"]]
        arc.queue.clear()
        assert find_runs(net) == [["f0", "f1", "f2"]]

    def test_multi_output_box_only_as_tail(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("c", CaseFilter([lambda t: t["A"] > 0], with_else_port=True))
        net.add_box("m", Map(lambda v: v))
        net.connect("in:src", "f")
        net.connect("f", "c")
        net.connect(("c", 0), "m")
        net.connect(("c", 1), "out:rest")
        net.connect("m", "out:sink")
        # c has two outputs: it may end a run but not continue one.
        assert find_runs(net) == [["f", "c"]]

    def test_same_node_predicate(self):
        net = pipeline(4)
        placement = {"f0": "n1", "f1": "n1", "f2": "n2", "f3": "n2"}
        runs = find_runs(
            net, same_node=lambda a, b: placement[a] == placement[b]
        )
        assert runs == [["f0", "f1"], ["f2", "f3"]]

    def test_protect_set(self):
        net = pipeline(4)
        assert find_runs(net, protect=frozenset({"f2"})) == [["f0", "f1"]]
        assert find_runs(net, protect=frozenset({"f0"})) == [["f1", "f2", "f3"]]


class TestFusedChain:
    def test_cost_and_shape(self):
        net = pipeline(3)
        chain = FusedChain([net.boxes[b] for b in ("f0", "f1", "f2")])
        expected = sum(net.boxes[b].operator.cost_per_tuple for b in ("f0", "f1", "f2"))
        assert chain.cost_per_tuple == pytest.approx(expected)
        assert chain.head.id == "f0"
        assert chain.tail.id == "f2"
        assert chain.member_ids() == ["f0", "f1", "f2"]
        assert "f0 -> f1 -> f2" in chain.describe()

    def test_process_batch_matches_sequential(self):
        net_a, net_b = pipeline(3), pipeline(3)
        tuples = [StreamTuple({"A": i}) for i in range(20)]
        chain = FusedChain([net_a.boxes[b] for b in ("f0", "f1", "f2")])
        charged = []
        fused, columnar = chain.run(
            list(tuples), 0, lambda i, box, batch: charged.append((box.id, len(batch)))
        )
        assert not columnar

        batch = list(tuples)
        for box_id in ("f0", "f1", "f2"):
            batch = [t for _p, t in net_b.boxes[box_id].operator.process_batch(batch, port=0)]
        assert [t.values for _p, t in fused] == [t.values for t in batch]
        # Logical attribution: every stage saw its own traffic.
        assert net_a.boxes["f0"].tuples_in == len(tuples)
        assert net_a.boxes["f1"].tuples_in == net_a.boxes["f0"].tuples_out
        assert net_a.boxes["f2"].tuples_in == net_a.boxes["f1"].tuples_out
        # Each stage is charged once, for the train entering it.
        assert charged == [
            (b, net_a.boxes[b].tuples_in) for b in ("f0", "f1", "f2")
        ]

    def test_single_box_is_a_run_of_one(self):
        net = pipeline(1)
        box = net.boxes["f0"]
        chain = FusionOverlay().run_of(box)
        assert chain.member_ids() == ["f0"] and chain.head is chain.tail
        tuples = [StreamTuple({"A": i}) for i in range(14)]
        emissions, columnar = chain.run(tuples, 0, lambda *_: None)
        assert not columnar
        assert [t.values for _p, t in emissions] == [
            t.values for _p, t in pipeline(1).boxes["f0"].operator.process_batch(tuples)
        ]
        assert (box.tuples_in, box.tuples_out) == (14, len(emissions))

    def test_overlay_maps_members_to_heads(self):
        net = pipeline(4)
        overlay = FusionOverlay()
        overlay.rebuild(net, find_runs(net))
        assert set(overlay.chains) == {"f0"}
        assert overlay.members == {b: "f0" for b in ("f0", "f1", "f2", "f3")}
        assert overlay.fused_runs() == [["f0", "f1", "f2", "f3"]]
        # Unfused boxes still get a run: themselves, as a run of one.
        assert overlay.run_of(net.boxes["f0"]) is overlay.chains["f0"]
        overlay.defuse("f2")
        assert overlay.fused_runs() == []
        assert overlay.run_of(net.boxes["f2"]).member_ids() == ["f2"]


class TestEngineFusion:
    def test_fused_by_default_and_interior_arcs_stay_empty(self):
        engine = AuroraEngine(pipeline(3), train_size=5)
        assert engine.fused_runs() == [["f0", "f1", "f2"]]
        engine.push_many("src", make_stream([{"A": i} for i in range(40)]))
        engine.run_until_idle()
        engine.flush()
        for box_id in ("f1", "f2"):
            for arc in engine.network.boxes[box_id].input_arcs.values():
                assert not arc.queue
        survivors = [i for i in range(40) if i % 7 != 0 and (i + 1) % 7 != 0]
        assert [t["A"] for t in engine.outputs["sink"]] == [i + 1 for i in survivors]

    def test_reference_mode_runs_unfused(self):
        engine = AuroraEngine(pipeline(3), batch_execution=False)
        assert engine.fused_runs() == []

    def test_no_fusion_without_push_trains(self):
        engine = AuroraEngine(pipeline(3), push_trains=False)
        assert engine.fused_runs() == []

    def test_defuse_all_and_one(self):
        net = pipeline(2)
        net.add_box("x", Filter(lambda t: True))
        net.add_box("y", Map(lambda v: v))
        net.connect("in:other", "x")
        net.connect("x", "y")
        net.connect("y", "out:other_sink")
        engine = AuroraEngine(net)
        assert sorted(engine.fused_runs()) == [["f0", "f1"], ["x", "y"]]
        engine.defuse("f1")  # by interior/tail member id
        assert engine.fused_runs() == [["x", "y"]]
        engine.defuse()
        assert engine.fused_runs() == []
        # invalidate_caches re-runs the pass: fusion is reversible.
        engine.invalidate_caches()
        assert sorted(engine.fused_runs()) == [["f0", "f1"], ["x", "y"]]

    def test_mid_run_defuse_preserves_outputs(self):
        tuples = [{"A": i} for i in range(60)]

        def run(defuse_at):
            engine = AuroraEngine(pipeline(4), train_size=6)
            engine.push_many("src", make_stream(tuples))
            for step in range(1000):
                if step == defuse_at:
                    engine.defuse()
                if engine.step() == 0.0:
                    break
            engine.flush()
            return [t["A"] for t in engine.outputs["sink"]]

        baseline = run(defuse_at=10_000)  # never defused
        assert run(defuse_at=0) == baseline
        assert run(defuse_at=2) == baseline

"""Characterization of an unfused Aurora* node's per-box accounting.

The load-share daemon and QoS inference read each box's ``busy_time``
and its measured T_B (``latency_sum / latency_count``).  An unfused
node charges a box the whole train's busy interval, scheduling
overhead included, as one busy-time increment and one latency sample
per train.  A Union fan-in box claims from both input arcs inside a
single train.  These figures pin that contract bit for bit, together
with the simulator clock, so a change to the node's train runner that
moves any of them shows up here.
"""

from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.tuples import make_stream
from repro.distributed.system import AuroraStarSystem


def fan_in_network():
    """in:a -> fa \\
                     u -> m -> out:sink
       in:b -> mb /"""
    net = QueryNetwork("fan_in")
    net.add_box("fa", Filter(lambda t: t["A"] % 4 != 1, cost_per_tuple=0.0013))
    net.add_box(
        "mb", Map(lambda v: {"A": v["A"] * 3}, cost_per_tuple=0.0007)
    )
    net.add_box("u", Union(2, cost_per_tuple=0.0003))
    net.add_box("m", Map(lambda v: {"A": v["A"] + 1}, cost_per_tuple=0.0011))
    net.connect("in:a", "fa")
    net.connect("in:b", "mb")
    net.connect("fa", ("u", 0))
    net.connect("mb", ("u", 1))
    net.connect("u", "m")
    net.connect("m", "out:sink")
    return net


def run(placement):
    system = AuroraStarSystem(fan_in_network())
    for node in sorted(set(placement.values())):
        system.add_node(node, train_size=7)
    system.deploy(placement)
    system.schedule_source(
        "a", make_stream([{"A": i} for i in range(60)], spacing=0.0011)
    )
    system.schedule_source(
        "b",
        make_stream(
            [{"A": i} for i in range(45)], start_time=0.0004, spacing=0.0017
        ),
    )
    system.run()
    system.flush()
    return system


def box_figures(system):
    return {
        box_id: (box.busy_time, box.latency_sum, box.latency_count)
        for box_id, box in sorted(system.network.boxes.items())
    }


class TestUnfusedNodeAccounting:
    def test_one_node(self):
        system = run({"fa": "n1", "mb": "n1", "u": "n1", "m": "n1"})
        assert system.fused_runs() == []
        assert len(system.outputs["sink"]) == 90
        assert box_figures(system) == {
            "fa": (0.0802, 0.0802, 11),
            "m": (0.10180000000000003, 0.10180000000000003, 14),
            "mb": (0.033100000000000004, 0.033100000000000004, 8),
            "u": (0.029799999999999997, 0.029799999999999997, 14),
        }
        assert system.nodes["n1"].busy_time == 0.24489999999999992
        assert system.sim.now == 0.24489999999999992

    def test_two_nodes(self):
        system = run({"fa": "n1", "mb": "n1", "u": "n2", "m": "n2"})
        assert len(system.outputs["sink"]) == 90
        assert box_figures(system) == {
            "fa": (0.0804, 0.0804, 12),
            "m": (0.10240000000000003, 0.10240000000000003, 17),
            "mb": (0.0331, 0.0331, 8),
            "u": (0.030399999999999996, 0.030399999999999996, 17),
        }
        assert system.nodes["n1"].busy_time == 0.11349999999999998
        assert system.nodes["n2"].busy_time == 0.1328
        assert system.sim.now == 0.14114

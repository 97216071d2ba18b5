"""Spawn-safe blueprint for the ``parallel_offload`` workload.

Worker processes rebuild their network from ``"offload:cpu_chain"``;
the module is importable there because ``spawn`` hands the
coordinator's ``sys.path`` (which holds this directory) to the child.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.operators import Map
from repro.core.query import QueryNetwork


def mix(x: int, rounds: int) -> int:
    """The per-stage work: ``rounds`` steps of a 31-bit LCG."""
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


def cpu_chain(stages: int = 2, rounds: int = 120) -> QueryNetwork:
    """A linear Map chain whose per-tuple cost is pure Python arithmetic."""

    def stage_fn(values: Mapping[str, Any]) -> dict[str, Any]:
        return {"id": values["id"], "x": mix(values["x"], rounds)}

    net = QueryNetwork(f"cpu_chain_{stages}")
    prev = "in:source"
    for index in range(stages):
        box_id = f"stage{index}"
        net.add_box(box_id, Map(stage_fn, name=box_id, cost_per_tuple=1e-5))
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:sink")
    return net

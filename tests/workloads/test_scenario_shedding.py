"""Shedding behaviour inside scenario runs.

Two families of guarantees:

* **Execution-mode equivalence** — the scalar, batched and fused
  engines are clock-identical, so a scenario's delivered-tuple and
  shed-tuple accounting (and therefore its SLO verdicts) must be
  *exactly* equal across all three modes, even with a probabilistic
  shedder in the loop: the coin flips happen at identical engine
  states.
* **QoS-driven ordering** — when the shedder does engage, drops must
  follow the declared loss curves: the low-importance bronze tenant
  absorbs the overload, the gold tenant is protected, and under a
  Zipf-skewed flash crowd the shed stays within the declared budget.
"""

import pytest

from repro.workloads.scenarios import (
    ScenarioRunner,
    make_scenario,
    run_scenario,
    scenario_names,
)
from repro.workloads.slo import shed_fraction

SCALE = 0.1
SEED = 42

MODES = {
    # (batch_execution, defuse the engine's superboxes after construction)
    "scalar": (False, False),
    "batch": (True, True),
    "fused": (True, False),
}


def run_modes(name):
    results = {}
    for mode, (batch_execution, defuse) in MODES.items():
        runner = ScenarioRunner(
            make_scenario(name, scale=SCALE),
            seed=SEED,
            batch_execution=batch_execution,
        )
        if defuse:
            runner.engine.defuse()
        results[mode] = runner.run()
    return results


class TestModeEquivalence:
    @pytest.mark.parametrize("name", ["tenant_mix", "flash_crowd"])
    def test_accounting_identical_across_modes(self, name):
        results = run_modes(name)
        scalar = results["scalar"]
        assert scalar.shed > 0, "scenario must actually shed to be a real test"
        for mode, result in results.items():
            assert result.ingested == scalar.ingested, mode
            assert result.delivered == scalar.delivered, mode
            assert result.shed == scalar.shed, mode

    @pytest.mark.parametrize("name", ["tenant_mix", "flash_crowd"])
    def test_full_summary_identical_across_modes(self, name):
        # Stronger than counts: per-objective observed values (trace
        # latencies, staleness, recovery) agree to the last digit.
        results = run_modes(name)
        summaries = {m: r.summary() for m, r in results.items()}
        assert summaries["scalar"] == summaries["batch"] == summaries["fused"]

    def test_metrics_snapshots_identical_across_modes(self):
        results = run_modes("tenant_mix")
        snapshots = {m: r.registry.snapshot() for m, r in results.items()}
        assert snapshots["scalar"] == snapshots["batch"] == snapshots["fused"]


class TestDeliveredAccounting:
    @pytest.mark.parametrize("name", scenario_names())
    def test_no_tuple_unaccounted(self, name):
        # offered == admitted + shed + outage-dropped, and the delivered
        # counter matches what actually reached the output streams.
        scenario = make_scenario(name, scale=SCALE)
        result = run_scenario(name, scale=SCALE, seed=SEED)
        offered = sum(len(stream) for stream in scenario.traffic(SEED).values())
        outage = int(result.registry.total("workload.outage.dropped"))
        assert result.ingested + result.shed + outage == offered
        emitted = sum(len(tups) for tups in result.engine.outputs.values())
        assert result.delivered == emitted
        assert result.engine.queued_counts == {} or all(
            n == 0 for n in result.engine.queued_counts.values()
        ), "run must drain completely"


class TestQoSOrdering:
    def test_bronze_absorbs_overload_before_gold(self):
        result = run_scenario("tenant_mix", scale=SCALE, seed=SEED)
        gold = shed_fraction(result.registry, "gold")
        bronze = shed_fraction(result.registry, "bronze")
        assert bronze is not None and bronze > 0.1
        assert gold is not None
        assert bronze > 4 * gold

    def test_ordering_holds_across_seeds(self):
        for seed in (1, 7, 99):
            result = run_scenario("tenant_mix", scale=SCALE, seed=seed)
            gold = shed_fraction(result.registry, "gold") or 0.0
            bronze = shed_fraction(result.registry, "bronze") or 0.0
            assert bronze >= gold, seed

    def test_zipf_flash_crowd_sheds_within_budget(self):
        result = run_scenario("flash_crowd", scale=SCALE, seed=SEED)
        assert result.shed > 0
        fraction = shed_fraction(result.registry)
        assert fraction is not None and fraction <= 0.2
        by_name = {obj.slo.name: obj for obj in result.report.objectives}
        assert by_name["shed_budget"].passed

    def test_shedding_can_be_disabled(self):
        scenario = make_scenario("tenant_mix", scale=SCALE)
        scenario.shedding = False
        result = ScenarioRunner(scenario, seed=SEED).run()
        assert result.shed == 0
        assert result.delivered == result.ingested

"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tracer_module  # noqa: E402
from layers import TARGETS, per_layer_metrics  # noqa: E402
from run import end_to_end  # noqa: E402
from tracer import (  # noqa: E402
    WRAPPED_MARKER,
    Target,
    Tracer,
    aggregate,
    count_nested,
    overhead_seconds,
    wrapped_names,
)
from workloads import CampaignSweep, JointDesign, OperatedDay  # noqa: E402


def _import_library() -> None:
    """Import every module the workloads bind names into."""
    import repro.campaign.orchestrator  # noqa: F401
    import repro.campaign.query  # noqa: F401
    import repro.mtd.cost  # noqa: F401
    import repro.timeseries.engine  # noqa: F401


def _repro_bindings() -> dict[tuple[str, str], int]:
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in vars(module).items():
                bindings[(name, attr)] = id(value)
                if isinstance(value, type):
                    for member, raw in vars(value).items():
                        bindings[(name, f"{attr}.{member}")] = id(raw)
    return bindings


# ----------------------------------------------------------------------
# the report matches BENCHMARK.json
# ----------------------------------------------------------------------
def test_reported_metrics_are_the_declared_ones():
    import json

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = per_layer_metrics(Tracer(), {}, work_s=1.0)
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    e2e = end_to_end({"op_times": [1.0, 2.0]}, [3.0])
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]


# ----------------------------------------------------------------------
# rebinding is complete and fully undone
# ----------------------------------------------------------------------
def test_every_rebound_name_is_restored():
    _import_library()
    import repro.mtd.design as design
    import repro.mtd.subspace as subspace
    import repro.opf.reactance_opf as reactance_opf
    import repro.timeseries.engine as operation_engine

    original = subspace.subspace_angle
    before = _repro_bindings()
    tracer = Tracer()
    with tracer.installed(TARGETS):
        # Names imported into other modules are rebound too.
        for module in (subspace, design, operation_engine):
            assert WRAPPED_MARKER in vars(module.subspace_angle)
        method = vars(reactance_opf.ReactanceOPFProblem)["equality_constraints"]
        assert WRAPPED_MARKER in vars(method)
        assert len(wrapped_names()) > len(TARGETS)
    assert wrapped_names() == []
    assert design.subspace_angle is original
    assert _repro_bindings() == before


def test_names_are_restored_when_the_run_raises():
    _import_library()
    before = _repro_bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed(TARGETS):
            raise RuntimeError("workload failed")
    assert wrapped_names() == []
    assert _repro_bindings() == before


# ----------------------------------------------------------------------
# self time on nested synthetic calls (fake clock, exact arithmetic)
# ----------------------------------------------------------------------
@pytest.fixture
def synthetic():
    now = [0.0]
    module = types.ModuleType("perfbench_synthetic")

    def advance(seconds):
        now[0] += seconds

    def leaf():
        advance(5.0)

    def inner():
        advance(3.0)
        module.leaf()

    def outer():
        advance(1.0)
        module.inner()
        advance(2.0)
        module.inner()

    def recursive(depth):
        advance(1.0)
        if depth:
            module.recursive(depth - 1)

    def produce():
        for item in range(3):
            advance(2.0)
            yield item

    for fn in (leaf, inner, outer, recursive, produce):
        setattr(module, fn.__name__, fn)
    # A second module importing ``leaf`` by name, like the library does.
    importer = types.ModuleType("perfbench_synthetic_importer")
    importer.leaf = leaf
    sys.modules[module.__name__] = module
    sys.modules[importer.__name__] = importer
    yield SimpleNamespace(module=module, importer=importer, now=now, advance=advance)
    del sys.modules[module.__name__], sys.modules[importer.__name__]


def _targets(*names):
    return [Target(name, f"perfbench_synthetic:{name}") for name in names]


def test_self_time_subtracts_child_spans(synthetic):
    tracer = Tracer(clock=lambda: synthetic.now[0])
    with tracer.installed(_targets("outer", "inner", "leaf")):
        assert WRAPPED_MARKER in vars(synthetic.importer.leaf)
        synthetic.module.outer()
    totals = aggregate(tracer.spans)
    assert (totals["outer"].calls, totals["outer"].seconds, totals["outer"].self_seconds) == (1, 19.0, 3.0)
    assert (totals["inner"].calls, totals["inner"].seconds, totals["inner"].self_seconds) == (2, 16.0, 6.0)
    assert (totals["leaf"].calls, totals["leaf"].seconds, totals["leaf"].self_seconds) == (2, 10.0, 10.0)
    assert count_nested(tracer.spans, "leaf", "outer") == 2
    assert synthetic.importer.leaf is vars(synthetic.module)["leaf"]


def test_reentered_layer_is_counted_once(synthetic):
    tracer = Tracer(clock=lambda: synthetic.now[0])
    with tracer.installed(_targets("recursive")):
        synthetic.module.recursive(2)
    totals = aggregate(tracer.spans)["recursive"]
    assert (totals.calls, totals.seconds, totals.self_seconds) == (1, 3.0, 3.0)


def test_generator_spans_exclude_the_consumer(synthetic):
    tracer = Tracer(clock=lambda: synthetic.now[0])
    with tracer.installed(_targets("produce")):
        for _ in synthetic.module.produce():
            synthetic.advance(10.0)  # consumer work between items
    totals = aggregate(tracer.spans)["produce"]
    assert totals.seconds == 6.0


def test_overhead_is_wrapper_cost_times_recorded_calls(synthetic, monkeypatch):
    targets = _targets("outer", "inner") + [
        Target("leaf.calls", "perfbench_synthetic:leaf", kind="count")
    ]
    tracer = Tracer(clock=lambda: synthetic.now[0])
    with tracer.installed(targets):
        synthetic.module.outer()
    assert (len(tracer.spans), tracer.counts["leaf.calls"]) == (3, 2)
    costs = {"span": 1e-6, "count": 1e-7}
    monkeypatch.setattr(tracer_module, "wrapper_cost", costs.__getitem__)
    assert overhead_seconds(tracer, targets) == pytest.approx(3e-6 + 2e-7)
    monkeypatch.undo()
    assert 0.0 <= tracer_module.wrapper_cost("span", calls=1000, rounds=2) < 1e-3


def test_paused_calls_are_not_recorded(synthetic):
    tracer = Tracer(clock=lambda: synthetic.now[0])
    with tracer.installed(_targets("leaf")):
        with tracer.paused():
            synthetic.module.leaf()
        synthetic.module.leaf()
    assert aggregate(tracer.spans)["leaf"].calls == 1


# ----------------------------------------------------------------------
# doctored outputs are counted as failed operations
# ----------------------------------------------------------------------
GOOD_HOUR = {
    "gamma_threshold": 0.3,
    "spa_attacker_vs_mtd": 0.31,
    "spa_attacker_vs_baseline": 0.0,
    "achieved_eta": 0.95,
    "baseline_cost": 100.0,
    "mtd_cost": 101.0,
    "n_tuning_probes": 3.0,
}


class _DoctoredDay(OperatedDay):
    """Operated day whose hours return a fixed record (no solves)."""

    record: dict = GOOD_HOUR

    def phase(self):
        self.hours = [None] * 24

    def run_op(self, hour):
        from repro.engine.results import TrialResult

        return TrialResult(trial_index=hour, metrics=dict(self.record))


def _doctored_day(record, tmp_path):
    workload = _DoctoredDay(seed=0, seconds=4, scratch=tmp_path)
    workload.setup()
    workload.record = record
    return workload


def test_operated_day_counts_spa_below_threshold_as_failed(tmp_path):
    import contextlib

    good = _doctored_day(GOOD_HOUR, tmp_path).execute(contextlib.nullcontext)
    n_hours = good["attempted"]
    assert n_hours >= 2 and good["failed"] == 0
    doctored = dict(GOOD_HOUR, spa_attacker_vs_mtd=0.29)
    outcome = _doctored_day(doctored, tmp_path).execute(contextlib.nullcontext)
    assert (outcome["attempted"], outcome["failed"]) == (n_hours, n_hours)
    assert all("achieved SPA" in reason for reason in outcome["failures"])


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("achieved_eta", 1.2, "outside [0, 1]"),
        ("mtd_cost", 99.0, "negative premium"),
        ("spa_attacker_vs_baseline", 0.2, "Fig. 11"),
    ],
)
def test_operated_day_checks(tmp_path, field, value, reason):
    workload = _doctored_day(dict(GOOD_HOUR, **{field: value}), tmp_path)
    workload.phase()
    reasons = workload.check_op(0, workload.run_op(0))
    assert len(reasons) == 1 and reason in reasons[0]


def test_joint_design_counts_spa_below_threshold_as_failed(tmp_path):
    workload = JointDesign(seed=0, seconds=24, scratch=tmp_path)
    workload.eq1 = SimpleNamespace(cost=100.0, constraint_violation=0.0)
    design = SimpleNamespace(achieved_spa=0.19, opf=SimpleNamespace(constraint_violation=0.0))
    cost = SimpleNamespace(mtd_cost=101.0)
    reasons = workload.check_op(0.2, (design, cost, 0.5))
    assert reasons and "achieved SPA" in reasons[0]
    design.achieved_spa = 0.2
    assert workload.check_op(0.2, (design, cost, 0.5)) == []


def test_campaign_replay_that_executes_is_failed(tmp_path):
    workload = CampaignSweep(seed=0, seconds=1, scratch=tmp_path)
    resumed = SimpleNamespace(executed=("abc",))
    reasons = workload._check_replay(resumed, [], {"abc"})
    assert any("resume executed" in r for r in reasons)
    assert any("query returned 0" in r for r in reasons)

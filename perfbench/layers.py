"""Which library functions each layer is, and the per-layer metrics.

``TARGETS`` names the public functions and methods a traced run wraps;
``per_layer_metrics`` reduces the tracer's spans and counters to the
``per_layer`` metrics of ``BENCHMARK.json``, which holds their units.  A layer's ``calls`` and
``s`` count outermost spans only (a layer re-entered from inside itself,
such as ``reduced_measurement_matrix`` calling ``measurement_matrix``, is
not counted twice); ``self_s`` subtracts every traced child span.
"""

from __future__ import annotations

from typing import Any

from tracer import Target, Tracer, aggregate, count_nested, overhead_seconds


def _observe_multistart(tracer: Tracer, args: tuple, outcome: Any) -> None:
    tracer.counts["opf.nlp.local_solves"] += len(outcome.runs)
    tracer.counts["opf.nlp.iterations"] += sum(run.iterations for run in outcome.runs)
    tracer.counts["opf.nlp.feasible_solves"] += outcome.n_feasible


def _observe_evaluator(tracer: Tracer, args: tuple, result: Any) -> None:
    evaluator = args[0]
    tracer.objects["evaluators"][id(evaluator)] = evaluator


TARGETS = [
    Target("grid.assemble", "repro.grid.matrices:measurement_matrix"),
    Target("grid.assemble", "repro.grid.matrices:reduced_measurement_matrix"),
    Target("mtd.spa", "repro.mtd.subspace:subspace_angle"),
    Target("mtd.design", "repro.mtd.design:design_mtd_perturbation"),
    Target("opf.lp", "repro.opf.dc_opf:solve_dc_opf"),
    Target("opf.nlp", "repro.opf.reactance_opf:solve_reactance_opf"),
    Target(
        "opf.multistart",
        "repro.opf.multistart:MultiStartOptimizer.solve",
        observe=_observe_multistart,
    ),
    Target(
        "opf.nlp.constraint_evals",
        "repro.opf.reactance_opf:ReactanceOPFProblem.equality_constraints",
        kind="count",
    ),
    Target(
        "opf.nlp.constraint_evals",
        "repro.opf.reactance_opf:ReactanceOPFProblem.inequality_constraints",
        kind="count",
    ),
    Target(
        "mtd.evaluate",
        "repro.mtd.effectiveness:EffectivenessEvaluator.evaluate",
        observe=_observe_evaluator,
    ),
    Target("estimation.factorize", "repro.estimation.linear_model:LinearModel.__init__"),
    Target("estimation.detect", "repro.estimation.bdd:BadDataDetector.detection_probabilities"),
    Target("attacks.ensemble", "repro.attacks.generator:generate_attack_ensemble"),
    Target("engine.spec_hash", "repro.engine.spec:ScenarioSpec.content_hash"),
    Target("engine.serialize", "repro.engine.results:ScenarioResult.to_dict"),
    Target("engine.serialize", "repro.engine.results:ScenarioResult.from_dict"),
    Target("campaign.plan", "repro.campaign.plan:plan_campaign"),
    Target("campaign.store.append", "repro.campaign.store:CampaignStore.append"),
    Target("campaign.store.read", "repro.campaign.store:CampaignStore.records"),
    Target("campaign.store.read", "repro.campaign.store:CampaignStore.completed_hashes"),
]

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer, counters: dict[str, int], work_s: float
) -> dict[str, float]:
    """Every per-layer metric of a traced run whose work took ``work_s``.

    ``trace.overhead`` is the estimated wrapper time over the rest of the
    work: the traced run's estimated slowdown against an untraced one.
    """
    totals = aggregate(tracer.spans)

    def calls(layer: str) -> int:
        return totals[layer].calls if layer in totals else 0

    def seconds(layer: str) -> float:
        return totals[layer].seconds if layer in totals else 0.0

    memo = [e.cache_stats()["analytic_memo"] for e in tracer.objects["evaluators"].values()]
    memo_hits = sum(stats["hits"] for stats in memo)
    memo_lookups = memo_hits + sum(stats["misses"] for stats in memo)
    lp_infeasible = totals["opf.lp"].errors["OPFInfeasibleError"] if "opf.lp" in totals else 0
    counts = tracer.counts
    overhead = overhead_seconds(tracer, TARGETS)
    return {
        "grid.assemble.calls": calls("grid.assemble"),
        "grid.assemble.s": seconds("grid.assemble"),
        "mtd.spa.calls": calls("mtd.spa"),
        "mtd.spa.s": seconds("mtd.spa"),
        "mtd.spa.us_per_call": 1e6 * _ratio(seconds("mtd.spa"), calls("mtd.spa")),
        "mtd.design.calls": calls("mtd.design"),
        "mtd.design.self_s": totals["mtd.design"].self_seconds if "mtd.design" in totals else 0.0,
        "mtd.design.spa_per_design": _ratio(
            count_nested(tracer.spans, "mtd.spa", "mtd.design"), calls("mtd.design")
        ),
        "opf.lp.calls": calls("opf.lp"),
        "opf.lp.s": seconds("opf.lp"),
        "opf.lp.infeasible_ratio": _ratio(lp_infeasible, calls("opf.lp")),
        "opf.nlp.calls": calls("opf.nlp"),
        "opf.nlp.s": seconds("opf.nlp"),
        "opf.nlp.local_solves": counts["opf.nlp.local_solves"],
        "opf.nlp.iterations": counts["opf.nlp.iterations"],
        "opf.nlp.constraint_evals": counts["opf.nlp.constraint_evals"],
        "opf.nlp.feasible_ratio": _ratio(
            counts["opf.nlp.feasible_solves"], counts["opf.nlp.local_solves"]
        ),
        "mtd.evaluate.calls": calls("mtd.evaluate"),
        "mtd.evaluate.s": seconds("mtd.evaluate"),
        "mtd.evaluate.memo_hit_ratio": _ratio(memo_hits, memo_lookups),
        "estimation.factorize.calls": calls("estimation.factorize"),
        "estimation.factorize.s": seconds("estimation.factorize"),
        "estimation.detect.calls": calls("estimation.detect"),
        "estimation.detect.s": seconds("estimation.detect"),
        "attacks.ensemble.calls": calls("attacks.ensemble"),
        "attacks.ensemble.s": seconds("attacks.ensemble"),
        "timeseries.probes": counters.get("timeseries.probes", 0),
        "timeseries.probes_per_hour": _ratio(
            counters.get("timeseries.probes", 0), counters.get("timeseries.hours", 0)
        ),
        "engine.trials": counters.get("engine.trials", 0),
        "engine.spec_hash.calls": calls("engine.spec_hash"),
        "engine.spec_hash.s": seconds("engine.spec_hash"),
        "engine.serialize.s": seconds("engine.serialize"),
        "campaign.plan.s": seconds("campaign.plan"),
        "campaign.store.append.calls": calls("campaign.store.append"),
        "campaign.store.append.s": seconds("campaign.store.append"),
        "campaign.store.bytes": counters.get("campaign.store.bytes", 0),
        "campaign.store.read.s": seconds("campaign.store.read"),
        "campaign.resume.executed": counters.get("campaign.resume.executed", 0),
        "trace.overhead": _ratio(overhead, work_s - overhead),
    }

"""Campaign orchestration: durable, sharded, resumable scenario sweeps.

The campaign layer turns thousands of scenario specs into one managed unit
of work:

* :mod:`repro.campaign.definition` — :class:`CampaignDefinition`, a frozen
  JSON-round-trippable description (base spec + parameter grids + explicit
  points + budget overrides);
* :mod:`repro.campaign.plan` — deterministic expansion into a
  content-hashed, sharded :class:`CampaignPlan` (also the single owner of
  the repository's grid-expansion semantics — in-memory
  ``ScenarioEngine.run_sweep`` delegates here);
* :mod:`repro.campaign.store` — :class:`CampaignStore`, append-only ndjson
  segments plus a SQLite index keyed by spec hash, crash-safe by
  construction;
* :mod:`repro.campaign.orchestrator` — :func:`run_campaign` /
  :class:`CampaignOrchestrator`, sharded execution with spec-hash-accounted
  resume — the store is the repository's one durable, hash-addressed
  result store, so re-running a completed campaign executes nothing;
* :mod:`repro.campaign.query` — filter / group-by /
  :class:`~repro.analysis.montecarlo.MonteCarloSummary` roll-ups / CSV
  export over a store;
* :mod:`repro.campaign.suites` — the canonical paper suites registered as
  named campaigns;
* :mod:`repro.campaign.cli` — the ``python -m repro`` command line.

Attributes are resolved lazily (PEP 562): the engine's runner imports
:mod:`repro.campaign.plan` at module load, and the lazy package keeps that
edge acyclic.

Quickstart
----------
>>> from repro.campaign import CampaignDefinition, run_campaign
>>> from repro.engine import ScenarioSpec
>>> definition = CampaignDefinition(
...     name="gamma-sweep",
...     base=ScenarioSpec(name="base", n_trials=2),
...     grids=({"mtd.gamma_threshold": (0.1, 0.2, 0.3)},),
... )
>>> report = run_campaign(definition, "gamma.campaign")  # doctest: +SKIP
>>> report.complete                                      # doctest: +SKIP
True
"""

from __future__ import annotations

from typing import Any

#: Public name → defining submodule; resolved lazily on first access.
_EXPORTS = {
    "CAMPAIGN_SCHEMA_VERSION": "definition",
    "DEFAULT_SHARD_SIZE": "definition",
    "CampaignDefinition": "definition",
    "CampaignPlan": "plan",
    "Shard": "plan",
    "assign_shards": "plan",
    "expand_sweep": "plan",
    "plan_campaign": "plan",
    "plan_sweep": "plan",
    "CampaignStore": "store",
    "spec_field": "store",
    "GroupSummary": "query",
    "query_results": "query",
    "summarize_groups": "query",
    "export_csv": "query",
    "CampaignOrchestrator": "orchestrator",
    "CampaignReport": "orchestrator",
    "CampaignStatus": "orchestrator",
    "ShardStatus": "orchestrator",
    "run_campaign": "orchestrator",
    "available_campaigns": "suites",
    "campaign_from_suite": "suites",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""Frozen outcome totals for the seeded vector_sum mini-campaign.

The mini-campaign is vector_sum on AVX, seed 7, four campaigns of 50
experiments, with golden checkpoints every 64 dynamic sites.  It runs in
two input regimes:

* **unique** — every experiment draws a fresh input from the workload's
  own input space, so the golden cache never hits;
* **pooled** — experiments draw from the small fixed input pool below,
  so each distinct input's golden run executes once per injector.

Its (sdc, benign, crash) totals were recorded before any of the engine
optimisations and are frozen here.  Every engine must reproduce them
exactly, with checkpoint restore on; a faster engine that moves them is a
bug.  ``benchmarks/test_speed_ratios.py`` times the same campaign.
"""

from random import Random

import pytest

from repro.core import FaultInjector, run_campaigns
from repro.core.campaign import CampaignConfig
from repro.core.injector import ENGINES
from repro.workloads import get_workload

SEED = 7

#: Frozen (sdc, benign, crash) totals per input regime.
EXPECTED_TOTALS = {"unique": (121, 49, 30), "pooled": (127, 39, 34)}

MINI_CONFIG = CampaignConfig(
    experiments_per_campaign=50,
    max_campaigns=4,
    min_campaigns=4,
    require_normality=False,
    margin_target=0.0,
)

#: Golden-checkpoint interval (dynamic sites), so the totals also pin
#: checkpoint restore to full replay.
CHECKPOINT_INTERVAL = 64

#: The pooled regime's fixed input pool: (n, seed) pairs.
POOLED_INPUTS = (
    (67, 101),
    (93, 202),
    (131, 303),
    (185, 404),
    (67, 505),
    (93, 606),
    (131, 707),
    (185, 808),
)


def mini_injector(engine: str) -> FaultInjector:
    module = get_workload("vector_sum").compile("avx")
    return FaultInjector(
        module, category="all", step_limit=500_000, engine=engine,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )


def mini_factory(regime: str):
    workload = get_workload("vector_sum")
    if regime == "unique":
        return workload.runner_factory()

    def factory(rng: Random):
        n, seed = rng.choice(POOLED_INPUTS)
        return workload.build_runner({"n": n, "seed": seed})

    return factory


def mini_campaign(injector: FaultInjector, regime: str):
    """Run the mini-campaign for one regime; returns the summary."""
    return run_campaigns(injector, mini_factory(regime), MINI_CONFIG, seed=SEED)


@pytest.mark.parametrize("regime", sorted(EXPECTED_TOTALS))
@pytest.mark.parametrize("engine", ENGINES)
def test_mini_campaign_totals_are_frozen(engine, regime):
    totals = mini_campaign(mini_injector(engine), regime).totals
    assert (totals.sdc, totals.benign, totals.crash) == EXPECTED_TOTALS[regime]

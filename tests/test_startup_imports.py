"""Process start-up stays free of scipy and networkx.

scipy is a test-only oracle for the in-repo campaign statistics, and its
import used to be most of every process start.  A fresh interpreter loads
the CLI and the service, runs one convergence-gated campaign whose stopping
rule evaluates both the t-based margin and the Shapiro-Wilk check, and then
must not have either package in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys

import repro.experiments.__main__
import repro.service.server
from repro.core import CampaignConfig, FaultInjector, campaign, run_campaigns
from repro.workloads import get_workload

calls = {"margin_of_error": 0, "is_near_normal": 0}


def counted(fn):
    def wrapper(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)
    return wrapper


campaign.margin_of_error = counted(campaign.margin_of_error)
campaign.is_near_normal = counted(campaign.is_near_normal)
workload = get_workload("vector_sum")
config = CampaignConfig(
    experiments_per_campaign=6, max_campaigns=3, min_campaigns=3,
    margin_target=1.0,
)
run_campaigns(
    FaultInjector(workload.compile("avx"), category="control"),
    workload.runner_factory(), config, seed=0,
)
assert all(calls.values()), calls  # the stopping rule really ran
print(",".join(sorted(
    {name.split(".")[0] for name in sys.modules} & {"scipy", "networkx"}
)))
"""


def test_campaign_process_never_imports_scipy_or_networkx():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "", f"loaded at start-up: {out.stdout.strip()}"

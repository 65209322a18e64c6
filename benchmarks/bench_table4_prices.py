"""Table 4: storage tier prices in AWS US East.

Table 4 is an input to the cost experiments.  Its prices live in one
place, the tier profiles (``TIER_PROFILES``), so this benchmark asserts
every row there matches the paper's table *exactly* and reports it.
"""

import pytest

from repro.bench.reporting import ExperimentReport, register_report
from repro.storage.cost import (
    NETWORK_PRICES,
    monthly_storage_cost,
    network_cost,
    request_cost,
)
from repro.storage.profiles import TIER_PROFILES
from repro.util.units import GB

# (tier, storage $/GB-mo, put $/10k, get $/10k) — Table 4 of the paper.
PAPER_TABLE4 = (
    ("ebs_ssd", 0.10, 0.0, 0.0),
    ("ebs_hdd", 0.05, 0.0005, 0.0005),
    ("s3", 0.03, 0.05, 0.004),
    ("s3_ia", 0.0125, 0.10, 0.01),
)


def _check():
    for tier, storage, put, get in PAPER_TABLE4:
        profile = TIER_PROFILES[tier]
        assert profile.storage_price == storage, tier
        assert profile.put_price == put, tier
        assert profile.get_price == get, tier
    assert NETWORK_PRICES["intra_dc"] == 0.0
    assert NETWORK_PRICES["internet"] == 0.09
    assert NETWORK_PRICES["inter_region"] == 0.02
    # The derived helpers agree with hand arithmetic.
    assert monthly_storage_cost("ebs_ssd", 10 * GB) == pytest.approx(1.0)
    assert request_cost("s3", puts=10_000, gets=10_000) == pytest.approx(0.054)
    assert network_cost(2 * GB, "internet") == pytest.approx(0.18)
    return True


def test_table4_prices(benchmark):
    assert benchmark.pedantic(_check, rounds=1, iterations=1)
    report = ExperimentReport(
        exp_id="table4",
        title="Storage tier prices in AWS US East (model inputs)",
        columns=["tier", "storage $/GB-mo", "put $/10k", "get $/10k"],
        paper_claim="reproduced verbatim from Table 4",
        notes="network: $0/GB within a DC, $0.02/GB between AWS regions, "
              "$0.09/GB to the Internet")
    for tier, storage, put, get in PAPER_TABLE4:
        report.add_row(tier, storage, put, get)
    register_report(report)

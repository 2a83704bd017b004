"""Shared fixtures for the benchmark suite.

All input data is generated once per session.  Sizes are scaled from the
paper's 868M-point / 2.29B-point workloads down to laptop-CI budgets; the
sweep *structures* match the paper (each size constant below names its
paper counterpart).
"""

from __future__ import annotations

import pytest

from benchmarks import harness
from repro.data import (
    generate_counties,
    generate_neighborhoods,
    generate_taxi,
    generate_twitter,
)

#: Scaled dataset sizes (paper: taxi 868M, twitter 2.29B).
TAXI_ROWS = 4_000_000
TWITTER_ROWS = 1_500_000
#: Scaled county count (paper: 3945; generation cost bounds ours).
COUNTY_COUNT = 1_000


@pytest.fixture(scope="session")
def taxi():
    """Taxi-like points, time-ordered so prefixes emulate time slicing."""
    return generate_taxi(TAXI_ROWS, seed=0)


@pytest.fixture(scope="session")
def twitter():
    return generate_twitter(TWITTER_ROWS, seed=0)


@pytest.fixture(scope="session")
def neighborhoods():
    """260 NYC-neighborhood-like polygons (Table 1 row 1)."""
    return generate_neighborhoods(seed=0)


@pytest.fixture(scope="session")
def counties():
    """County-like polygons over a continental extent (Table 1 row 2,
    scaled from 3945 to 1000 regions)."""
    return generate_counties(seed=0, n=COUNTY_COUNT)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every experiment table the run produced, paper-style."""
    tables = harness.all_tables()
    if not tables:
        return
    terminalreporter.write_sep("=", "reproduced paper tables & figures")
    for tbl in tables:
        terminalreporter.write_line("")
        terminalreporter.write_line(tbl.render())
        path = tbl.dump_tsv()
        terminalreporter.write_line(f"[rows saved to {path}]")

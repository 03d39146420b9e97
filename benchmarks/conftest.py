"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables (or the Figure 3
vectorisation pipeline data) through ``repro.service.run_tables`` and
asserts the headline *shape* of the result.  Set ``REPRO_FULL_TABLES=1`` to run every row
of Table I/II instead of the default representative subset.
"""

import os

import pytest

FULL = os.environ.get("REPRO_FULL_TABLES", "0") == "1"

#: Representative subset used by default to keep the benchmark run short:
#: one Flang-favouring scalar code, one linear-algebra kernel and the three
#: stencils the paper focuses on.
TABLE1_SUBSET = ["ac", "linpk", "test_fpu", "jacobi", "pw-advection", "tra-adv"]
TABLE2_SUBSET = ["ac", "linpk", "test_fpu", "jacobi", "pw-advection", "tra-adv"]


@pytest.fixture(scope="session")
def table1_benchmarks():
    return None if FULL else TABLE1_SUBSET


@pytest.fixture(scope="session")
def table2_benchmarks():
    return None if FULL else TABLE2_SUBSET

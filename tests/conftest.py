"""Runs shared across test modules."""

from __future__ import annotations

import time

import pytest

from safecut import sim
from safecut.scenario import scenario_catalog


@pytest.fixture(scope="session")
def catalog_runs():
    """{id: (spec, log, elapsed seconds)} of catalog 1-4 at catalog settings.

    All four run on first use, before any test patches the code they run; each
    log's data is read-only, so no test can change what the next one reads.
    A test whose subject is a second run (a rerun, a run by file) runs its own.
    """
    out = {}
    for sid in (1, 2, 3, 4):
        spec = scenario_catalog(sid)
        t0 = time.perf_counter()
        log = sim.run(spec)
        elapsed = time.perf_counter() - t0
        log.data.flags.writeable = False
        out[sid] = (spec, log, elapsed)
    return out

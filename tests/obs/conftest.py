"""Shared obs-test hygiene.

Metric *values* are zeroed before every test with
``MetricsRegistry.reset_values()``; registrations, and with them the
module-level instrument references the engine holds, live as long as
the process.  Teardown also stops any profiler a failing test left
installed and disables the recent-roots ring.
"""

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _obs_isolation():
    obs_metrics.REGISTRY.reset_values()
    yield
    leftover = obs_profile.installed()
    if leftover is not None:
        leftover.stop()
    obs_trace.keep_recent_roots(0)

"""Shared fixtures: one session-wide SpectrumCache, and the hypothesis
settings every property test uses.

SR graphs, their spectra and the Gamma classifications are needed by many
tests and by several acceptance criteria; the cache the verification
battery uses computes each once per session, which keeps the suite inside
its runtime budget without changing any assertion.  The terminal summary
hook replays the one-line-per-criterion acceptance record, which default
capture would otherwise swallow.
"""

import sys

import pytest
from hypothesis import settings

from rooklab.verify import SpectrumCache

# Fixed seed: the suite runs the same examples every time.
property_test = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="session")
def spectrum_cache():
    return SpectrumCache()


@pytest.fixture(scope="session")
def sr(spectrum_cache):
    return spectrum_cache.graph


@pytest.fixture(scope="session")
def sr_spectrum(spectrum_cache):
    return spectrum_cache.spectrum


@pytest.fixture(scope="session")
def gamma_classes(spectrum_cache):
    return spectrum_cache.gamma_classes


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)

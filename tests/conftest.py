import pytest
from hypothesis import settings

from drinfeld.verify import default_bundle, run_suites

# every property test is reproducible: the same examples on every run
settings.register_profile("drinfeld", derandomize=True, deadline=None)
settings.load_profile("drinfeld")


@pytest.fixture(scope="session")
def bundle():
    """The stock verification bundle, keyed by label."""
    return {entry.label: entry for entry in default_bundle()}


@pytest.fixture(scope="session")
def bundle_reports(bundle):
    """Reports for every bundle entry; computed once per session."""
    return {
        label: run_suites(entry.config, entry.suites)
        for label, entry in bundle.items()
    }

"""Keep process-global chain-engine state from leaking between tests."""

import pytest


@pytest.fixture(autouse=True)
def _reset_quotient_mode():
    """The CLI entry points set the process-wide quotient mode (their
    default is "auto"); restore the library default afterwards so a test
    that routes through ``repro.cli.main`` cannot change which chain a
    later test's ``compile_chain`` returns."""
    yield
    from repro.chain import configure_quotient

    configure_quotient("off")


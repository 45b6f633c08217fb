"""Fail any test that leaves the execution context changed.

Nothing resets the context between tests: every entry point restores
what it entered (``use_context``), so a test that finds a different
context at its end has found a leak, and fails.
"""

import pytest

from repro.context import current_context


@pytest.fixture(autouse=True)
def _context_is_restored():
    before = current_context()
    yield
    after = current_context()
    assert after is before, f"test left the context changed: {after!r}"

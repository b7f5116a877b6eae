"""Shared fixtures."""

import pytest

from smcflab.grid import Grid


@pytest.fixture
def transform_counts(monkeypatch):
    """Counts Grid.fft and Grid.ifft calls from here on; zero the dict to restart."""
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        original = getattr(Grid, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return counts

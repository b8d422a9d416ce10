import pytest

from ctxbias import smoothing


@pytest.fixture
def width_sides(monkeypatch):
    """Both sides of the pooling's width selection, for any width: iterate
    ``width_sides()`` to run a block once with the per-step pooling over
    np.cumsum ("cumsum") and once with the per-window pooling over row adds
    ("row_adds")."""
    def sides():
        for side, width in (("cumsum", 10**9), ("row_adds", 1)):
            monkeypatch.setattr(smoothing, "_ROW_ADD_WIDTH", width)
            yield side
    return sides

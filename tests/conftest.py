import pytest

from rayclass import ModularPoint, PrecisionContext


@pytest.fixture(scope="session")
def ctx256():
    return PrecisionContext(256, "1e-40")


@pytest.fixture(scope="session")
def ctx300():
    return PrecisionContext(300, "1e-40")


@pytest.fixture(scope="session")
def ctx512():
    return PrecisionContext(512, "1e-40")


@pytest.fixture
def point_value_runs(monkeypatch):
    """runs(name) returns a list that records each point on which the cached
    ModularPoint.<name> body runs for the rest of the test."""

    def runs(name):
        prop = vars(ModularPoint)[name]
        body = prop.func
        seen = []

        def counted(pt):
            seen.append(pt)
            return body(pt)

        monkeypatch.setattr(prop, "func", counted)
        return seen

    return runs

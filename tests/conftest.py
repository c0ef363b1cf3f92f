import sys

import pytest

from rayclass import ModularPoint, PrecisionContext, qseries


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


@pytest.fixture
def evaluator_calls(monkeypatch):
    """calls(name) returns a list that records the point of each call of the
    module evaluator qseries.<name> (eta, delta, u_value, ...), through any
    rayclass module that binds it, for the rest of the test."""

    def calls(name):
        body = getattr(qseries, name)
        seen = []

        def counted(pt, *args):
            seen.append(pt)
            return body(pt, *args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "rayclass" and getattr(mod, name, None) is body:
                monkeypatch.setattr(mod, name, counted)
        return seen

    return calls


@pytest.fixture
def siegel_product_runs(monkeypatch):
    """A list that records (point, (N, s, t)) each time the Siegel q-product
    runs on the reduced index (s/N, t/N), a miss of the level-N table's
    memo, for the rest of the test."""
    body = qseries._LevelTable.siegel
    seen = []

    def counted(tab, pt, s, t):
        if (s, t) not in tab.siegels:
            seen.append((pt, (tab.n, s, t)))
        return body(tab, pt, s, t)

    monkeypatch.setattr(qseries._LevelTable, "siegel", counted)
    return seen

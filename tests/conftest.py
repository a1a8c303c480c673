import numpy as np
import pytest

from coarsegeo.constants import default_constants
from coarsegeo.surfmodel import ModelSurface


@pytest.fixture(scope="session")
def cn():
    return default_constants()


@pytest.fixture(scope="session")
def marking1():
    return ModelSurface(((1, 1),), flavor="marking")


@pytest.fixture(scope="session")
def marking2():
    return ModelSurface(((1, 1), (1, 1)), flavor="marking")


@pytest.fixture(scope="session")
def augmented1():
    return ModelSurface(((1, 1),), flavor="augmented")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def calls_to(monkeypatch):
    """calls_to(owner, name) patches owner.name to append the arguments
    of each call to the list it returns, then call through."""

    def patch(owner, name: str) -> list:
        real, calls = getattr(owner, name), []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, recording)
        return calls
    return patch

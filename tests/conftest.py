import pytest

from chowring import weyl
from chowring.f4pipeline import get_f4_varieties
from chowring.rootsystem import root_system
from chowring.schubert import get_chow_ring
from chowring.weyl import get_weyl_group


@pytest.fixture(scope="session")
def f4():
    return root_system("F4")


@pytest.fixture(scope="session")
def f4_group(f4):
    return get_weyl_group(f4)


# Per test: a test that clears the pipeline's caches gets the rings built
# after the clear, not those of an earlier test.
@pytest.fixture
def x1():
    return get_f4_varieties()[0]


@pytest.fixture
def x4():
    return get_f4_varieties()[1]


@pytest.fixture(scope="session")
def a2_flag():
    return get_chow_ring(root_system("A2"), ())


@pytest.fixture(scope="session")
def b2_flag():
    return get_chow_ring(root_system("B2"), ())


@pytest.fixture
def no_weyl_enumeration(monkeypatch):
    """Refuse the orbit of theta = (), the one walk of all of W, for tests
    on types whose Weyl group is too large to list (E6 to E8)."""
    walk = weyl._coset_orbit

    def refuse_regular(system, theta):
        if not theta:
            raise AssertionError(f"W of rank {system.rank} was enumerated")
        return walk(system, theta)

    monkeypatch.setattr(weyl, "_coset_orbit", refuse_regular)

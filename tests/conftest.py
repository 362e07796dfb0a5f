import pytest

from groups_util import build_roster
from pargroupoid import QNN, Gamma, GammaAlgebra, verify_kpar_relations


@pytest.fixture(scope="session")
def roster():
    return build_roster()


@pytest.fixture(scope="session")
def roster_map(roster):
    return dict(roster)


@pytest.fixture(scope="session")
def kpar_reports(roster):
    # One relations-plus-span run per group, shared by every test that needs
    # the canonical representation verified; this dominates suite runtime.
    return {name: verify_kpar_relations(GammaAlgebra(Gamma(G), QNN))
            for name, G in roster}


@pytest.fixture(scope="session")
def algebra_of(roster_map):
    cache = {}

    def get(name: str, scalars=QNN) -> GammaAlgebra:
        if name not in cache:
            cache[name] = GammaAlgebra(Gamma(roster_map[name]), QNN)
        alg = cache[name]
        return alg if scalars is QNN else alg.with_scalars(scalars)

    return get

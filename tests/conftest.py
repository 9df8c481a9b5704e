import pytest

from dng.catalog import catalog_specs
from dng.groupspec import build, parse_spec
from dng.oracle import brute_nim


@pytest.fixture(scope="session")
def built():
    """Build a group from its spec once per session: ``built("S6")``.  Tests
    that share a group share its per-group results."""
    groups = {}

    def get(spec):
        if spec not in groups:
            groups[spec] = build(parse_spec(spec))
        return groups[spec]

    return get


@pytest.fixture(scope="session")
def catalog24(built):
    return [(spec, built(spec)) for spec in catalog_specs(24)]


@pytest.fixture(scope="session")
def catalog36(built):
    return [(spec, built(spec)) for spec in catalog_specs(36)]


@pytest.fixture(scope="session")
def catalog96(built):
    return [(spec, built(spec)) for spec in catalog_specs(96)]


@pytest.fixture(scope="session")
def oracle_nims24(catalog24):
    """Oracle nim-number per catalog group name, computed once."""
    return {name: brute_nim(g).nim for name, g in catalog24}

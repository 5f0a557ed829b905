import pytest

from ordbench import build_poset

from oracles import catalog_named


@pytest.fixture(scope="session")
def c2():
    return catalog_named("C2")


@pytest.fixture(scope="session")
def c3():
    return catalog_named("C3")


@pytest.fixture(scope="session")
def b2():
    return catalog_named("B2")


@pytest.fixture(scope="session")
def m3():
    return catalog_named("M3")


@pytest.fixture(scope="session")
def n5():
    return catalog_named("N5")


@pytest.fixture(scope="session")
def f3():
    return catalog_named("F3")


@pytest.fixture(scope="session")
def bare_posets():
    """Small posets that are not lattices, plus the empty poset."""
    return (
        build_poset("A2", ("a", "b"), []),
        build_poset("V3", ("bot", "a", "b"), [("bot", "a"), ("bot", "b")]),
        build_poset("L3", ("a", "b", "top"), [("a", "top"), ("b", "top")]),
        build_poset("W5", ("a", "b", "c", "d", "e"), [("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")]),
        build_poset("E0", (), []),
    )

import pytest

from kiselman import congruence_oracle, enumerate_elements

# |K_n|.  At n = 2, 3 the automaton's walk equals the oracle's least words of
# the classes, in order, so its count is the class count; for n <= 6 the walk
# equals the BFS over ``multiply`` (tests/test_enumeration.py); n = 7..10 rest
# on the automaton count alone.
KNOWN_SIZES = {
    1: 2, 2: 5, 3: 18, 4: 115, 5: 1710, 6: 83_973, 7: 22_263_378,
    8: 64_146_328_635, 9: 5_387_481_983_035_854, 10: 53_332_505_278_384_935_836_485,
}


@pytest.fixture(scope="session")
def universe2():
    return enumerate_elements(2)


@pytest.fixture(scope="session")
def universe3():
    return enumerate_elements(3)


@pytest.fixture(scope="session")
def universe4():
    return enumerate_elements(4)


@pytest.fixture(scope="session")
def oracle2():
    return congruence_oracle(2, max_len=8)


@pytest.fixture(scope="session")
def oracle3():
    return congruence_oracle(3, max_len=8)

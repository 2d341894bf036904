import pytest

from oracles import naive_set

from ramify.arith import prime_table

_acceptance_outcomes: dict[str, str] = {}


@pytest.fixture(scope="session")
def primes_200():
    return prime_table(200)


@pytest.fixture(scope="session")
def primes_10k():
    return prime_table(10_000)


@pytest.fixture(scope="session")
def naive_sets_200():
    """Naive ramifier lists to x = 200 per modulus, straight off the
    definition; the list for a smaller x is a prefix of these."""
    return {m: naive_set(m, 200) for m in range(2, 201)}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_outcomes[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_acceptance_outcomes.items()):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {status}")

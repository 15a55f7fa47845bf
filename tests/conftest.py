"""Counts every `generate` call of the test process by its config.

Each corpus is generated once per session, in `corpora`.  A test of
`generate` itself, or of the `gen` and `audit --gen` commands, is marked
`own_generation` and may generate what it likes; outside those tests a
config generated twice fails the session when it ends.  The summary line
gives the counts.  `audit --gen` generates through `generate_classified`,
which `generate` calls and which is not counted, and its worker processes
would count in their own copies anyway.
"""

from collections import Counter
from functools import wraps

import pytest

from newton_forest import oracle_gen

_calls: Counter = Counter()  # config -> calls outside own_generation tests
_own_calls = 0
_in_own_generation = False


def _counted(generate):
    @wraps(generate)
    def counted(config):
        global _own_calls
        if _in_own_generation:
            _own_calls += 1
        else:
            _calls[config] += 1
        return generate(config)

    return counted


# Installed before any test module imports the package's command line,
# which binds `generate`, for the `gen` command, when it is imported.
oracle_gen.generate = _counted(oracle_gen.generate)


def _twice() -> list:
    return sorted((repr(c), n) for c, n in _calls.items() if n > 1)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "own_generation: a test of `generate` itself, or of the `gen` and"
        " `audit --gen` commands; its `generate` calls are not counted",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    global _in_own_generation
    _in_own_generation = item.get_closest_marker("own_generation") is not None
    try:
        yield
    finally:
        _in_own_generation = False


def pytest_sessionfinish(session, exitstatus):
    if _twice() and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    write(
        f"generate: {sum(_calls.values())} calls for {len(_calls)} configs,"
        f" and {_own_calls} in own_generation tests"
    )
    twice = _twice()
    if twice:
        write(f"generate: {len(twice)} configs generated more than once:", red=True)
        for config, n in twice[:20]:
            write(f"  {n}x {config}", red=True)

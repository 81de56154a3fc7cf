"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper at the scale
selected by ``--repro-scale`` (``small`` by default; ``medium``/``full``
approach the paper's session counts).  Reports print to stdout — run with
``pytest benchmarks/ --benchmark-only -s`` to see the regenerated rows.

``--repro-jobs N`` fans each experiment's independent sessions out over N
worker processes (reports stay byte-identical), and ``--repro-cache-dir``
memoizes completed sessions on disk — useful to iterate on an analysis
change without re-simulating, but note that a warm cache makes *timing*
numbers meaningless for the simulation itself.

Timings come from pytest-benchmark itself: ``--benchmark-save`` stores a
run, ``--benchmark-compare --benchmark-compare-fail=min:100%`` gates a
later one against it.
"""

import pytest

from repro.experiments import SCALES, engine_options


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="small",
        choices=sorted(SCALES),
        help="experiment scale: small (fast), medium, full (paper-scale)",
    )
    parser.addoption(
        "--repro-jobs",
        action="store",
        type=int,
        default=1,
        help="worker processes for independent sessions (default 1)",
    )
    parser.addoption(
        "--repro-cache-dir",
        action="store",
        default=None,
        help="memoize completed sessions under this directory",
    )


@pytest.fixture(autouse=True)
def engine(request):
    """Install the engine options every benchmark runs under."""
    with engine_options(
        jobs=request.config.getoption("--repro-jobs"),
        cache=request.config.getoption("--repro-cache-dir"),
    ) as options:
        yield options


@pytest.fixture
def scale(request):
    return SCALES[request.config.getoption("--repro-scale")]


@pytest.fixture
def show(capsys):
    """Print an experiment report even under pytest's capture."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show

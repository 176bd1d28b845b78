"""Shared fixtures: opt-in runtime invariant sanitization + race detection.

``pytest --sanitize`` attaches :class:`repro.verify.invariants.
InvariantSanitizer` to every :class:`~repro.machine.Machine` the tests
build, so the whole tier-1 suite doubles as a protocol-invariant
regression harness.  Off by default — the per-event checks roughly double
kernel overhead.

``pytest --race-detect`` likewise attaches the lockset/vector-clock race
detector (:mod:`repro.verify.races`) with ``raise_on_race=True`` to every
Machine, so any unannotated data race in any test workload fails that
test.  Tests that *deliberately* race (the detector's own fixtures) get a
clean Machine via the ``racy_machine_factory`` fixture.

Tests that need a sanitizer unconditionally can request the
``sanitized_machine_factory`` fixture instead.  A test that takes the
``backend`` fixture runs once per kernel backend, ``pure`` and
``compiled`` (skipped where the extension is not built).
"""

import pytest

from repro.machine import Machine
from repro.sim import kernel
from repro.verify.invariants import InvariantSanitizer
from repro.verify.races import RaceDetector


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="attach the runtime invariant sanitizer to every Machine")
    parser.addoption(
        "--race-detect", action="store_true", default=False,
        help="attach the data-race detector to every Machine; any "
             "unannotated race fails the test")


@pytest.fixture(autouse=True)
def _global_sanitize(request, monkeypatch):
    """When --sanitize is given, transparently sanitize every Machine."""
    if not request.config.getoption("--sanitize"):
        yield
        return
    original_init = Machine.__init__

    def sanitized_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        InvariantSanitizer(self).attach()

    monkeypatch.setattr(Machine, "__init__", sanitized_init)
    yield


@pytest.fixture(autouse=True)
def _global_race_detect(request, monkeypatch):
    """When --race-detect is given, race-check every Machine."""
    if not request.config.getoption("--race-detect"):
        yield
        return
    if request.node.get_closest_marker("intentionally_racy") is not None:
        yield
        return
    original_init = Machine.__init__

    def detecting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        # an ambient race_detection() block may already have attached one
        if self.races is None:
            RaceDetector(self, raise_on_race=True).attach()

    monkeypatch.setattr(Machine, "__init__", detecting_init)
    yield


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    """Build this test's simulators on each kernel backend in turn."""
    if request.param not in kernel.available_backends():
        pytest.skip("compiled backend not built on this machine")
    prev = kernel.active_backend()
    kernel.set_backend(request.param)
    yield request.param
    kernel.set_backend(prev)


@pytest.fixture
def sanitized_machine_factory():
    """Build Machines with an attached sanitizer regardless of --sanitize."""
    def factory(config=None, **machine_kwargs):
        machine = Machine(config, **machine_kwargs)
        if machine.sanitizer is not None:   # --sanitize already attached one
            machine.sanitizer.detach()
        sanitizer = InvariantSanitizer(machine).attach()
        return machine, sanitizer

    return factory


@pytest.fixture
def racy_machine_factory():
    """Build Machines with NO raise-on-race detector, regardless of
    ``--race-detect`` — for tests whose whole point is to race."""
    def factory(config=None, **machine_kwargs):
        machine = Machine(config, **machine_kwargs)
        if machine.races is not None and machine.races.raise_on_race:
            machine.races.detach()
        return machine

    return factory

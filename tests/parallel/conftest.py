"""Shared fixtures for the parallel-backend tests.

``REPRO_TEST_START_METHOD`` is the CI chaos matrix's knob: when set
(``fork`` / ``spawn``), every native miner these tests construct
defaults to that multiprocessing start method, so the whole suite —
ring, shift, and recovery paths included — runs once per start method
in CI instead of only under the platform default.  Explicit
``start_method=`` arguments in individual tests still win.

Every test here also runs under ``no_leaked_segments``: it must leave
no shared-memory segment of this process behind.
"""

import glob
import multiprocessing
import os

import pytest

from repro.parallel.native import NativeCountDistribution, _SEGMENT_PREFIX
from repro.parallel.native_idd import NativePartitionedMiner


def live_repro_segments() -> set:
    """This process's ``repro-*`` segments now backing ``/dev/shm``.

    A segment's name embeds the pid of the coordinator that created it
    (``native._segment_name``), so the listing holds only segments this
    test process made: pools of other processes — a second suite, a
    CLI mine, a killed coordinator's child — never show up in it.
    Empty where ``/dev/shm`` does not exist.
    """
    return set(glob.glob(f"/dev/shm/{_SEGMENT_PREFIX}{os.getpid():x}-*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Fail a test that leaves a shared segment of this process behind."""
    before = live_repro_segments()
    yield
    leaked = live_repro_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def forced_start_method(monkeypatch):
    """Default native miners to ``$REPRO_TEST_START_METHOD`` when set."""
    method = os.environ.get("REPRO_TEST_START_METHOD")
    if not method:
        yield None
        return
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")
    # NativePartitionedMiner covers both its IDD and HD subclasses.
    for cls in (NativeCountDistribution, NativePartitionedMiner):
        original = cls.__init__

        def patched(self, *args, _original=original, **kwargs):
            kwargs.setdefault("start_method", method)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", patched)
    yield method

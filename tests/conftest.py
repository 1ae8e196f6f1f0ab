"""Suite-wide guards."""

import builtins
import io
import multiprocessing

import pytest
from hypothesis import settings

# property tests draw the same few examples on every run and keep no
# example database, so the suite stays reproducible and its time bounded
settings.register_profile(
    "reproducible", derandomize=True, max_examples=25, deadline=None, database=None
)
settings.load_profile("reproducible")


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process running (training forks
    its workers through multiprocessing, which tracks them)."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.kill()
        proc.join()
    assert leaked == [], f"test left processes running: {leaked}"


@pytest.fixture(autouse=True)
def no_staging_leftovers(request):
    """Fail a test that leaves a sibling data.publish stages a new artifact
    at (`<name>.partial`) or moves an old one aside to (`<name>.old`)."""
    yield
    tmp_path = request.node.funcargs.get("tmp_path")
    if tmp_path is not None:
        left = sorted(p for tag in ("*.partial", "*.old") for p in tmp_path.rglob(tag))
        assert left == [], f"test left staging siblings: {left}"


class SharedCount:
    """A call count that forked workers (training's or eval's) add to as well."""

    def __init__(self):
        self._value = multiprocessing.get_context("fork").Value("q", 0)

    def add(self):
        with self._value.get_lock():
            self._value.value += 1

    def __len__(self):
        return self._value.value


def use_executors(monkeypatch, w):
    """Train and evaluate on min(rows, w) executors, whatever the
    machine's core count."""
    from ambiseg import cli, training

    for module in (training, cli):
        monkeypatch.setattr(module, "_executor_count", lambda rows: min(rows, w))


class Writes:
    """Counts files opened for writing; the `fail_at`-th is created (or
    truncated) and then raises `error`, as a disk that fills up would."""

    def __init__(self):
        self.arm(None, None)

    def arm(self, fail_at, error):
        self.count, self.fail_at, self.error = 0, fail_at, error


@pytest.fixture
def writes(monkeypatch):
    """Counts (and on request fails) every open for writing during a test:
    `open` in the package's writers and `io.open` under Path.write_text."""
    counter = Writes()
    real = builtins.open

    def counted(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            counter.count += 1
            if counter.count == counter.fail_at:
                real(file, mode, *args, **kwargs).close()
                raise counter.error
        return real(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    return counter

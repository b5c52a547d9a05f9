"""The pinned deterministic-vs-transient failure taxonomy.

This table is the spec that `_guarded_cell`'s retry policy runs on: a
*deterministic* failure is a pure function of the cell's inputs
(retrying it cannot change the outcome), a *transient* one is
environmental and may heal between attempts.  Changing a classification changes how many times a cluster
re-runs a failing cell — it should be a deliberate edit here, not an
accident of an exception hierarchy.
"""

import pickle

import pytest

from repro.parallel.sharding import _guarded_cell, classify_error

#: (exception instance, expected class) — the taxonomy table.
TAXONOMY = [
    # Bad values / types / lookups: the cell itself is broken.
    (ValueError("bad lambda"), "deterministic"),
    (TypeError("not callable"), "deterministic"),
    (KeyError("protocol"), "deterministic"),
    (IndexError("row 9 of 3"), "deterministic"),
    (AttributeError("no such field"), "deterministic"),
    (AssertionError("invariant broke"), "deterministic"),
    (ZeroDivisionError("k == 0"), "deterministic"),
    (OverflowError("energy overflow"), "deterministic"),
    (NotImplementedError("protocol stub"), "deterministic"),
    # Serialising the same result fails the same way on every worker.
    (pickle.PicklingError("unpicklable summary"), "deterministic"),
    (pickle.UnpicklingError("corrupt payload"), "deterministic"),
    # RecursionError subclasses RuntimeError, but unbounded recursion
    # is a property of the computation, not of the host.
    (RecursionError("maximum depth"), "deterministic"),
    # Environmental: may heal between attempts.
    (RuntimeError("worker wedged"), "transient"),
    (OSError("flaky filesystem"), "transient"),
    (FileNotFoundError("dataset moved"), "transient"),
    (PermissionError("mount remounted ro"), "transient"),
    (TimeoutError("peer slow"), "transient"),
    (ConnectionResetError("broker dropped"), "transient"),
    (BrokenPipeError("pool pipe died"), "transient"),
    (MemoryError("host under pressure"), "transient"),
    (InterruptedError("signal during read"), "transient"),
    (BlockingIOError("EAGAIN"), "transient"),
]


@pytest.mark.parametrize(
    "exc, expected",
    TAXONOMY,
    ids=[type(e).__name__ for e, _ in TAXONOMY],
)
def test_taxonomy(exc, expected):
    assert classify_error(exc) == expected


def test_base_exceptions_classify_transient():
    # An interrupted worker says nothing about the cell.  _guarded_cell
    # never absorbs these (BaseException rips through); the fleet sees
    # a lost worker, whose cell it likewise treats as transient.
    assert classify_error(KeyboardInterrupt()) == "transient"
    assert classify_error(SystemExit(1)) == "transient"


class TestGuardedCellPolicy:
    """The retry policy the taxonomy drives."""

    def test_deterministic_failure_never_retried(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("same inputs, same crash")

        status, payload, attempts = _guarded_cell(boom, (), retries=5)
        assert status == "error"
        assert payload["class"] == "deterministic"
        assert payload["type"] == "ValueError"
        assert attempts == 1
        assert len(calls) == 1

    def test_transient_failure_consumes_retry_budget(self):
        calls = []

        def flaky():
            calls.append(1)
            raise OSError("still flaky")

        status, payload, attempts = _guarded_cell(flaky, (), retries=2)
        assert status == "error"
        assert payload["class"] == "transient"
        assert attempts == 3
        assert len(calls) == 3

    def test_transient_failure_heals_mid_budget(self):
        calls = []

        def heals():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("first try flaky")
            return {"ok": True}

        status, payload, attempts = _guarded_cell(heals, (), retries=2)
        assert status == "ok"
        assert payload == {"ok": True}
        assert attempts == 2

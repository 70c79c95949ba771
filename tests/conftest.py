"""Fixtures shared by the test modules."""

from __future__ import annotations

import contextlib

import pytest

from rmfchi import enumerator


@pytest.fixture
def swap_cuts_off(monkeypatch):
    """A context manager factory that takes the census's swap cuts off.

    Inside the context ``enumerator._genus_pairs`` accepts every cycle
    rank, ``enumerator._degrees_can_pair`` every matrix,
    ``enumerator._kinds_pair`` every weight split and
    ``enumerator._paired_compositions`` yields every genus composition,
    so ``enumerator._plain_classes`` lists every plain class of a
    balanced type, in order, including those that cannot carry a
    color-swapping gamma.
    """
    @contextlib.contextmanager
    def off():
        with monkeypatch.context() as m:
            m.setattr(enumerator, "_genus_pairs", lambda spare: True)
            m.setattr(enumerator, "_degrees_can_pair", lambda *args: True)
            m.setattr(enumerator, "_kinds_pair", lambda *args: True)
            m.setattr(enumerator, "_paired_compositions",
                      lambda total, white, black: enumerator._compositions(
                          total, len(white) + len(black)))
            yield

    return off

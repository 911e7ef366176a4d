"""Pinned output of the lattice census.

One SHA-256 over the collapsed census of a fixed set of tori: every dense
M x N with M N <= 12, every dilute M x N with M N <= 9, and dense 4x4,
dilute 3x4 and dilute 4x3.  Any change to a key (contractible loops,
windings, tile counts, H and V mod 2) or to a multiplicity shows up as a
different digest, so a rewrite of the enumeration or of the tracer must
reproduce it exactly.
"""

import hashlib

from torusloop.lattice import _config_count, census_counter

EXTRA_TORI = (("dense", 4, 4), ("dilute", 3, 4), ("dilute", 4, 3))
MAX_FACES = {"dense": 12, "dilute": 9}

PINNED = "0defc1b0e73cf5295053748999d0d58372adde9f6f2d90a6c81f680d7e31489f"


def _pinned_tori():
    for kind, faces in MAX_FACES.items():
        for M in range(1, faces + 1):
            for N in range(1, faces // M + 1):
                yield kind, M, N
    yield from EXTRA_TORI


def census_digest() -> str:
    h = hashlib.sha256()
    for kind, M, N in _pinned_tori():
        h.update(f"{kind} {M}x{N}\n".encode())
        for key, mult in census_counter(kind, M, N):
            h.update(f"{key!r}:{mult}\n".encode())
    return h.hexdigest()


def test_pinned_tori():
    assert len(list(_pinned_tori())) == 61


def test_census_output_is_pinned():
    assert census_digest() == PINNED


def test_guard_count_is_the_census_total():
    """The size guard's configuration count equals the census multiplicity
    sum on every pinned torus."""
    for kind, M, N in _pinned_tori():
        assert _config_count(kind, M, N) == sum(m for _, m in census_counter(kind, M, N))

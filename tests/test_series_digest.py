"""Pinned output of the exact series forms.

One SHA-256 over (sorted terms, valid, cutoff) of a fixed set of series from
every form in `torusloop.conformal`.  Any change to exponents, coefficients,
coefficient types or truncation shows up as a different digest, so a
rewrite of the theta builders or of the kernel must reproduce it exactly.
"""

import hashlib
from fractions import Fraction as F

from torusloop.acceptance import ALL_HV, SERIES_PQ
from torusloop.conformal import (Z_hv_bezout, Z_hv_direct, Z_hv_u1, expand_terms,
                                 full_Z_series, on_series, verma_trace_series)
from torusloop.cyclo import CycloNum
from torusloop.golden import GOLDEN_APPENDIX_FORMS

SECTOR_CUTOFFS = (F(6), F(7, 3))
FULL_PQ = ((1, 2), (2, 3), (3, 4))
FULL_E0 = (F(0), F(1, 3), F(2, 5), F(3, 5), F(-3, 7), F(7, 5))
FULL_CUTOFF = F(8)
VERMA_G0 = (F(0), F(1, 3), F(-2, 3))

PINNED = "356326b525c05e22ea378eec706c34c809a35955d16882b5d3caec975f8baade"


def _coeff_text(c) -> str:
    if isinstance(c, CycloNum):
        return f"CycloNum[{c.field.m}]({','.join(str(x) for x in c.coeffs)})"
    return f"{type(c).__name__}({c})"


def _series_text(series) -> str:
    terms = ";".join(f"{a},{b}:{_coeff_text(c)}" for (a, b), c in series.sorted_terms())
    return f"{terms}|valid={series.valid}|cutoff={series.cutoff}\n"


def _pinned_series():
    for K in SECTOR_CUTOFFS:
        for (p, pq) in SERIES_PQ:
            for (h, v) in ALL_HV:
                for form in (Z_hv_direct, Z_hv_u1, Z_hv_bezout):
                    yield form(p, pq, h, v, K)
    for (p, pq) in FULL_PQ:
        for e0 in FULL_E0:
            yield full_Z_series(p, pq, e0, FULL_CUTOFF)
            yield on_series(F(p, pq), e0, FULL_CUTOFF)
    yield full_Z_series(2, 3, F(2, 5), FULL_CUTOFF)
    for K in SECTOR_CUTOFFS:
        for (kind, eps) in (("dense", 0), ("dense", 1), ("dilute", 0)):
            for g0 in VERMA_G0:
                for d in (0, 1, 2):
                    yield verma_trace_series(kind, 2, 3, d, g0, eps, K)
        for key in sorted(GOLDEN_APPENDIX_FORMS):
            yield expand_terms(GOLDEN_APPENDIX_FORMS[key], K)


def series_digest() -> str:
    h = hashlib.sha256()
    for series in _pinned_series():
        h.update(_series_text(series).encode())
    return h.hexdigest()


def test_series_output_is_pinned():
    assert series_digest() == PINNED

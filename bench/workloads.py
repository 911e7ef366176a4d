"""The three benchmark workloads, one per computational route.

A workload turns a seed into a list of checks.  A check's ``compute`` makes
the program calls that a run times; its ``verify`` judges their results
outside the timed region and returns an error message, or None when the
check passes.  The seed picks parameter values only (spectral parameters,
fugacities, twists); sizes and cutoffs are fixed here, so every seed asks
for the same amount of work.

Every program call goes through an attribute of the ``torusloop`` package
looked up at call time, so that the traced run's wrappers see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ALL_HV = ((0, 0), (0, 1), (1, 0), (1, 1))

# oracle: lattice enumeration against Markov traces on small tori
ORACLE_SIZES = {
    "dense": ((2, 2), (2, 4), (3, 3), (3, 4)),
    "dilute": ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4)),
}
ORACLE_PQ = ((2, 3), (3, 4))

# transfer: Markov traces beyond enumeration, (kind, p, p', N, M)
TRANSFER_CASES = (("dilute", 2, 3, 5, 4), ("dense", 3, 4, 8, 4))

# series: exact q-series identities
TRIPLE_PQ = ((2, 3), (3, 4))
TRIPLE_CUTOFF = 8
FULL_PQ = ((1, 2), (3, 4))
FULL_CUTOFF = 8


@dataclass
class Check:
    label: str
    compute: Callable[[], object]
    verify: Callable[[object], "str | None"]


def scaled_error(a: float, b: float) -> float:
    """|a - b| relative to the larger of the two values compared."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _sectors(kind: str, M: int, N: int) -> tuple:
    return ((N % 2, M % 2),) if kind == "dense" else ALL_HV


def _seeded_spec(tl, rng: random.Random, kind: str, p: int, pq: int):
    lam = tl.ModelSpec(kind, p, pq, 0.0).lam
    return tl.ModelSpec(kind, p, pq, rng.uniform(0.1 * lam, 0.9 * lam))


def _within(tol: float, want: float, got: float, what: str) -> "str | None":
    err = scaled_error(want, got)
    if err <= tol:
        return None
    return f"{what}: {got!r} vs {want!r}, scaled error {err:.3e} > {tol:g}"


def oracle(tl, rng: random.Random) -> list:
    """lattice_Z against markov_Z in every valid sector of every torus."""
    tol = tl.acceptance.ORACLE_TOL
    alphas = (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
    checks = []
    for kind, sizes in ORACLE_SIZES.items():
        for p, pq in ORACLE_PQ:
            spec = _seeded_spec(tl, rng, kind, p, pq)
            for M, N in sizes:
                for h, v in _sectors(kind, M, N):
                    for alpha in alphas:
                        def compute(spec=spec, M=M, N=N, h=h, v=v, alpha=alpha):
                            return (tl.lattice_Z(spec, M, N, sector=(h, v), alpha=alpha),
                                    tl.markov_Z(spec, M, N, h, v, alpha=alpha))

                        def verify(zs):
                            return _within(tol, zs[0], zs[1], "markov_Z vs lattice_Z")

                        label = f"{kind} ({p},{pq}) {M}x{N} hv=({h},{v}) alpha={alpha:.4f}"
                        checks.append(Check(label, compute, verify))
    return checks


def numpy_markov_Z(tl, spec, M: int, N: int, h: int, v: int, alpha: float) -> float:
    """markov_Z rebuilt from numeric traces at K = 2M + 3 roots of unity.

    An inverse DFT of tr T(omega)^M recovers the twist coefficients C_{d,j}
    for j in [-M, M]; the two spare modes +-(M+1) must vanish (no aliasing).
    """
    import numpy as np

    K = 2 * M + 3
    omegas = np.exp(2j * np.pi * np.arange(K) / K)
    total = 0.0
    for d in range(h % 2, N + 1, 2):
        if spec.kind == "dense" and (N - d) % 2:
            continue
        op = tl.build_transfer(spec, N, d)
        traces = np.array([np.trace(np.linalg.matrix_power(op.to_numeric(w), M))
                           for w in omegas])
        coeff = np.fft.fft(traces) / K  # coeff[k % K]: the omega^k coefficient
        size = max(np.abs(coeff).max(), 1e-300)
        spare = max(abs(coeff[M + 1]), abs(coeff[K - M - 1]))
        if spare > 1e-9 * size:
            raise ArithmeticError(f"trace support exceeds [-M, M] at d={d}")
        s = 0.0
        for j in range(-M, M + 1):
            if (j - v) % 2:
                continue
            c = coeff[-j % K]
            s += tl.arith.chebyshev_T(tl.arith.gcd_conv(d, abs(j)), alpha / 2.0) * c.real
        total += (1.0 if d == 0 else 2.0) * s
    return total


def transfer(tl, rng: random.Random) -> list:
    """markov_Z on modules too big for enumeration, against a numpy rebuild."""
    tol = tl.acceptance.ORACLE_TOL
    checks = []
    for kind, p, pq, N, M in TRANSFER_CASES:
        spec = _seeded_spec(tl, rng, kind, p, pq)
        alpha = rng.uniform(0.2, 2.0)
        for h, v in _sectors(kind, M, N):
            def compute(spec=spec, M=M, N=N, h=h, v=v, alpha=alpha):
                return tl.markov_Z(spec, M, N, h, v, alpha=alpha)

            def verify(z, spec=spec, M=M, N=N, h=h, v=v, alpha=alpha):
                want = numpy_markov_Z(tl, spec, M, N, h, v, alpha)
                return _within(tol, want, z, "markov_Z vs numpy traces")

            label = f"{kind} ({p},{pq}) N={N} M={M} hv=({h},{v}) alpha={alpha:.4f}"
            checks.append(Check(label, compute, verify))
    return checks


def series(tl, rng: random.Random) -> list:
    """The exact triple identity and the full-PF / O(n) identity."""
    checks = []
    cutoff = Fraction(TRIPLE_CUTOFF)
    for p, pq in TRIPLE_PQ:
        for h, v in ALL_HV:
            def compute(p=p, pq=pq, h=h, v=v, cutoff=cutoff):
                zd = tl.Z_hv_direct(p, pq, h, v, cutoff)
                zu = tl.Z_hv_u1(p, pq, h, v, cutoff)
                zb = tl.Z_hv_bezout(p, pq, h, v, cutoff)
                return bool(zd.terms), zd.matches(zu), zd.matches(zb)

            def verify(out):
                empty, u1_ok, bezout_ok = not out[0], out[1], out[2]
                if empty:
                    return "Z_hv_direct is empty"
                if not (u1_ok and bezout_ok):
                    return f"direct matches u1: {u1_ok}, direct matches bezout: {bezout_ok}"
                return None

            checks.append(Check(f"triple ({p},{pq}) hv=({h},{v}) cutoff={cutoff}",
                                compute, verify))
    cutoff = Fraction(FULL_CUTOFF)
    for p, pq in FULL_PQ:
        e0 = Fraction(rng.randint(1, 4), 5)

        def compute(p=p, pq=pq, e0=e0, cutoff=cutoff):
            full = tl.full_Z_series(p, pq, e0, cutoff)
            on = tl.on_series(Fraction(p, pq), e0, cutoff)
            return bool(full.terms), full.matches(on.swap())

        def verify(out):
            if not out[0]:
                return "full_Z_series is empty"
            return None if out[1] else "full_Z_series does not match on_series swapped"

        checks.append(Check(f"full ({p},{pq}) e0={e0} cutoff={cutoff}", compute, verify))
    return checks


WORKLOADS = {"oracle": oracle, "transfer": transfer, "series": series}


def make_checks(name: str, tl, seed: int) -> list:
    return WORKLOADS[name](tl, random.Random(seed))

"""Integer and half-integer Bezout conjugates.

For coprime (p, p') and boundary sector (h, v), affine u(1) indices at level
n = p p' live modulo P, with P = 2n when p*v is even and 4n when p*v is odd.
The Kac rectangle K = {0 <= r < p, 0 <= s < (P/n) p'} maps bijectively onto
the index set {j + h'/2 : 0 <= j < P} through

    j + h'/2      = p' r - p (s + h/2)  mod P,
    conj(j + h'/2) = p' r + p (s + h/2)  mod P,

where h' = 1 when p is odd and h = 1, else 0 (the indices are half-integers
exactly in that case).  Conjugation is an involution implemented by
multiplication with an odd conjugator w0, up to a half-period shift mu*P/2.

Labels are stored as doubled integers (2j + h') so every reduction is plain
integer arithmetic mod 2P, the period of J = 2j in the u(1) character
kappa^n_j(z), 4n at z = +1 and 8n at z = -1; `conformal` reads them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .model import check_pair, check_sector


@dataclass(frozen=True)
class BezoutContext:
    p: int
    pq: int
    h: int
    v: int
    n: int = field(init=False)
    hprime: int = field(init=False)
    P: int = field(init=False)
    kappa: int = field(init=False)

    def __post_init__(self):
        p = self.p
        check_pair(p, self.pq)
        check_sector((self.h, self.v))
        n = p * self.pq
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "hprime", 1 if (p % 2 and self.h) else 0)
        object.__setattr__(self, "P", 4 * n if (p * self.v) % 2 else 2 * n)
        object.__setattr__(self, "kappa", self.P // (2 * n))

    @property
    def zsign(self) -> int:
        return -1 if (self.p * self.v) % 2 else 1

    @property
    def s_range(self) -> int:
        """Number of Kac rows: (P/n) p'."""
        return (self.P // self.n) * self.pq

    def doubled_pair(self, r: int, s: int) -> tuple:
        """Doubled labels (2(j+h'/2), 2 conj(j+h'/2)) of the Kac cell (r, s)."""
        twoP = 2 * self.P
        a = (2 * self.pq * r - self.p * (2 * s + self.h)) % twoP
        b = (2 * self.pq * r + self.p * (2 * s + self.h)) % twoP
        return a, b


@lru_cache(maxsize=None)
def bezout_table(ctx: BezoutContext) -> MappingProxyType:
    """Read-only map from (r, s) in the Kac rectangle to the doubled conjugate pair.

    Raises if the label map fails to be a bijection onto {2j + h'}.
    """
    table = {}
    seen = set()
    for r in range(ctx.p):
        for s in range(ctx.s_range):
            a, b = ctx.doubled_pair(r, s)
            if a % 2 != ctx.hprime or b % 2 != ctx.hprime:
                raise ArithmeticError("doubled label with wrong parity")
            if a in seen:
                raise ArithmeticError("Bezout label map is not injective")
            seen.add(a)
            table[(r, s)] = (a, b)
    if len(seen) != ctx.P:
        raise ArithmeticError("Bezout label map is not onto")
    return MappingProxyType(table)


def bezout_conjugator(ctx: BezoutContext) -> tuple:
    """The odd conjugator w0 and its defining Kac cell (r0, s0).

    (r0, s0) is the unique cell whose label is (1/2)^{h'};
    w0 = 2^{h'} (p' r0 + p (s0 + h/2)).
    """
    target = 2 if ctx.hprime == 0 else 1  # doubled value of (1/2)^{h'}
    for (r, s), (a, b) in bezout_table(ctx).items():
        if a == target:
            w0 = (2 ** ctx.hprime) * (2 * ctx.pq * r + ctx.p * (2 * s + ctx.h)) // 2
            if w0 % 2 == 0:
                raise ArithmeticError("conjugator must be odd")
            if (w0 * w0) % ctx.P != 1 % ctx.P:
                raise ArithmeticError("conjugator must square to 1 mod P")
            return w0, (r, s)
    raise ArithmeticError("no Kac cell with unit label")


def mu_shift(ctx: BezoutContext, r: int, s: int) -> int:
    """The half-period shift mu in conj(x) = w0 x + mu P/2 mod P."""
    _, (r0, s0) = bezout_conjugator(ctx)
    if ctx.p % 2:
        if ctx.v == 0:
            return 0
        if ctx.h == 0:
            return (r * s0 - r0 * s) % 2
        return (r - r0) % 2
    if ctx.h == 0:
        return 0
    return (r - r0) % 2


def index_pairs(ctx: BezoutContext) -> list:
    """[(a, b, rho_j)] as ints in increasing j: the doubled label a = 2(j + h'/2), its
    doubled conjugate b and rho_j = (a + b)/(4p'), ArithmeticError if not whole."""
    out = []
    for a, b in sorted(bezout_table(ctx).values()):
        rho, rest = divmod(a + b, 4 * ctx.pq)
        if rest:
            raise ArithmeticError("rho_j is not an integer")
        out.append((a, b, rho))
    return out


def _fmt_half(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def kac_table_text(ctx: BezoutContext) -> str:
    """Render the Kac table of conjugate pairs, one row per s value.

    Rows are labeled by s (or s + 1/2), ascending downward; the horizontal
    rule separates the framed fundamental domain s < 2p' that feeds the
    modular covariant partition functions.
    """
    table = bezout_table(ctx)
    lines = []
    header = "s\\r".rjust(6) + "".join(f"{r:>12}" for r in range(ctx.p))
    lines.append(header)
    for s in range(ctx.s_range):
        row_label = _fmt_half(2 * s + ctx.hprime) if ctx.hprime else str(s)
        cells = []
        for r in range(ctx.p):
            a, b = table[(r, s)]
            cells.append(f"{_fmt_half(a)},{_fmt_half(b)}".rjust(12))
        lines.append(row_label.rjust(6) + "".join(cells))
        if s == 2 * ctx.pq - 1 and ctx.s_range > 2 * ctx.pq:
            lines.append(" " * 6 + "-" * (12 * ctx.p))
    return "\n".join(lines)


def table_json_obj(ctx: BezoutContext) -> dict:
    w0, (r0, s0) = bezout_conjugator(ctx)
    cells = [
        {"r": r, "s": s, "label": _fmt_half(a), "conjugate": _fmt_half(b),
         "mu": mu_shift(ctx, r, s)}
        for (r, s), (a, b) in sorted(bezout_table(ctx).items())
    ]
    return {
        "p": ctx.p, "pq": ctx.pq, "h": ctx.h, "v": ctx.v,
        "n": ctx.n, "P": ctx.P, "kappa": ctx.kappa, "hprime": ctx.hprime,
        "conjugator": w0, "r0": r0, "s0": s0,
        "cells": cells,
    }

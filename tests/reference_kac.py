"""Reference Kac data: the central charge and conformal weights of the (p, p') model.

The package's exact forms never evaluate a weight: they collect integer
exponent numerators over one denominator, (p' R - p S)^2 over 4 p p' den^2.
The tests rebuild those forms term by term from `KacData.delta_exp`, and hold
the Kac weights to `delta_from_ratio`, the same weight written through the
ratio g = p/p' alone.  Both apply the package's input rules, `check_pair`,
`check_ratio` and `exact`.
"""

from dataclasses import dataclass
from fractions import Fraction

from torusloop.model import check_pair, check_ratio
from torusloop.qseries import exact


@dataclass(frozen=True)
class KacData:
    """Central charge and conformal weights of the (p, p') model."""

    p: int
    pq: int

    def __post_init__(self):
        check_pair(self.p, self.pq)

    @property
    def c(self) -> Fraction:
        return 1 - Fraction(6 * (self.p - self.pq) ** 2, self.p * self.pq)

    def delta(self, r, s) -> Fraction:
        return self.delta_exp(r, s) + (self.c - 1) / 24

    def delta_exp(self, r, s) -> Fraction:
        """delta(r, s) - c/24 + 1/24 = (p' r - p s)^2 / (4 p p')."""
        r, s = exact(r, "label r"), exact(s, "label s")
        return (self.pq * r - self.p * s) ** 2 / Fraction(4 * self.p * self.pq)


def delta_from_ratio(g: Fraction, r, s) -> Fraction:
    """Conformal weight written through the ratio g = p/p' > 0 alone."""
    check_ratio(g)
    g = exact(g, "g = p/p'")
    r, s = exact(r, "label r"), exact(s, "label s")
    return ((r - g * s) ** 2 - (1 - g) ** 2) / (4 * g)

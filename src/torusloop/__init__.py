"""Torus partition functions of dense and dilute loop models.

Three independent computational routes to the same physics:

* exact lattice enumeration of loop configurations on small tori,
* transfer matrices on standard modules of the (dilute) periodic
  Temperley-Lieb algebra assembled through Markov traces,
* exact conformal q-series (Verma sesquilinear forms, affine u(1)
  characters, Bezout-indexed sums) with their modular covariance,

plus the number-theoretic identities that tie the continuum forms together.
"""

from .arith import chebyshev_T, gamma_v, gcd_conv, verify_master, verify_s1_s2
from .bezout import (BezoutContext, bezout_conjugator, bezout_table,
                     kac_table_text, mu_shift)
from .characters import TauPoint, u1_char
from .conformal import (Z_hv_bezout, Z_hv_direct, Z_hv_u1, Zmm,
                        appendix_c_form, conformal_Z_numeric,
                        expand_terms, full_Z_series, modular_rep_check,
                        on_series, render_appendix_form, verma_trace_series)
from .lattice import LoopCensus, TileGrid, enumerate_configs, lattice_Z
from .model import ModelSpec, Weights
from .qseries import BiSeries, QSeries, euler_inverse
from .transfer import (TransferOperator, build_transfer,
                       effective_central_charge, link_states, markov_Z,
                       trace_TM)

__version__ = "0.1.0"

__all__ = [
    "BezoutContext", "BiSeries", "LoopCensus", "ModelSpec", "QSeries", "TauPoint",
    "TileGrid", "TransferOperator", "Weights", "Z_hv_bezout", "Z_hv_direct", "Z_hv_u1",
    "Zmm", "appendix_c_form", "bezout_conjugator", "bezout_table", "build_transfer",
    "chebyshev_T", "conformal_Z_numeric", "effective_central_charge", "enumerate_configs",
    "euler_inverse", "expand_terms", "full_Z_series", "gamma_v", "gcd_conv",
    "kac_table_text", "lattice_Z", "link_states", "markov_Z",
    "modular_rep_check", "mu_shift", "on_series", "render_appendix_form",
    "trace_TM", "u1_char", "verify_master", "verify_s1_s2", "verma_trace_series",
]

"""Workbench for multiple zeta values and Ohno-type shifted sums.

The package is organised in layers:

* :mod:`ohno.indices` -- exact algebra of integer-sequence indices and their
  rational formal sums (duality, componentwise shifts, interleaving and
  position-sum products).  Everything here is exact and float-free.
* :mod:`ohno.zeta` -- numeric evaluation of multiple zeta values via binary
  words and a split-at-one-half convolution of geometric series, plus a
  direct-summation oracle and a persistent value cache.
* :mod:`ohno.sums` -- shifted-sum (Ohno sum) machinery and the composite
  quantities used by the identity catalogue.
* :mod:`ohno.verify` -- a registry of identities with grid sweeps, residual
  reports and JSON/CSV export.
* :mod:`ohno.expr` / :mod:`ohno.cli` -- a small expression language over
  indices and the command line front end.
"""

from ohno.indices import (
    EMPTY,
    Index,
    IndexCombination,
    append_entry,
    combination_to_text,
    dual_linear,
    enumerate_shifts,
    hast,
    iter_admissible,
    repeat,
    sha,
    star_single,
)
from ohno.zeta import (
    EvalConfig,
    PrecisionError,
    ZetaCache,
    eval_combination,
    eval_zeta,
    eval_zeta_direct,
    reverse_swap,
    to_word,
)
from ohno.sums import ohno_sum_symbolic
from ohno.verify import (
    IdentitySpec,
    VerificationReport,
    list_identities,
    report_to_file,
    verify,
)
from ohno.expr import ExprError, expand_text

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "EvalConfig",
    "ExprError",
    "IdentitySpec",
    "Index",
    "IndexCombination",
    "PrecisionError",
    "VerificationReport",
    "ZetaCache",
    "append_entry",
    "combination_to_text",
    "dual_linear",
    "enumerate_shifts",
    "eval_combination",
    "eval_zeta",
    "eval_zeta_direct",
    "expand_text",
    "hast",
    "iter_admissible",
    "list_identities",
    "ohno_sum_symbolic",
    "repeat",
    "report_to_file",
    "reverse_swap",
    "sha",
    "star_single",
    "to_word",
    "verify",
]

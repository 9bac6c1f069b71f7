"""One-time code-based signatures over quasi-cyclic matrices.

Submodules: params (parameter sets and densities), qcalg (circulant
polynomial ring and block matrices), ldgm (sparse-generator codes), scheme
(keygen / sign / verify), serial (byte formats), analysis (cost and
rejection-rate models), cli (command-line front end).
"""

from .params import REGISTRY, DensityPolynomial, ParameterSet, get_params
from .scheme import (
    PrivateKey,
    PublicKey,
    Signature,
    VerifyResult,
    choose_theta,
    derive_syndrome,
    keygen,
    sign,
    verify,
)

__all__ = [
    "REGISTRY",
    "DensityPolynomial",
    "ParameterSet",
    "get_params",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "VerifyResult",
    "choose_theta",
    "derive_syndrome",
    "keygen",
    "sign",
    "verify",
]

__version__ = "0.1.0"

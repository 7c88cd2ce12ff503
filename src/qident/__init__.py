"""Exact-arithmetic engine for nested-divisor q-series families.

The package computes truncated integer power series for four families of
weighted partition-chain sums, together with the q-Pochhammer, Gaussian
binomial, kernel, and theta machinery needed to express them in closed
form, and verifies every supported identity coefficientwise against
independent computations and brute-force combinatorial oracles.
"""

from .families import (
    FAMILIES,
    FamilySpec,
    InvalidSpec,
    b_coefficient,
    binomial_combination,
    family_series,
    reconstruct_family,
)
from .identities import (
    REGISTRY,
    Discrepancy,
    IdentityCase,
    MissingParam,
    UnknownIdentity,
    VerifyReport,
    divisor_sum_series,
    overpartition_pair_series,
    pod_bipartition_series,
    verify,
    verify_suite,
)
from .oracles import (
    DomainError,
    divisor_sigma,
    overpartition_pairs,
    pod_bipartitions,
    v_oracle,
    w_oracle,
)
from .qtools import (
    INFINITE,
    gaussian_binomial,
    kernel_H,
    pochhammer,
    theta_phi_neg,
    theta_psi,
)
from .series import (
    ExactSeries,
    from_coeffs,
    from_terms,
    monomial,
    mul,
    one,
    weighted_sum,
    zero,
)

__version__ = "0.1.0"

__all__ = [
    "ExactSeries", "from_coeffs", "from_terms", "weighted_sum",
    "monomial", "mul", "one", "zero",
    "INFINITE",
    "pochhammer", "gaussian_binomial", "kernel_H",
    "theta_phi_neg", "theta_psi",
    "FAMILIES", "FamilySpec", "InvalidSpec",
    "family_series", "b_coefficient",
    "binomial_combination", "reconstruct_family",
    "DomainError",
    "v_oracle", "w_oracle", "overpartition_pairs", "pod_bipartitions",
    "divisor_sigma",
    "Discrepancy", "IdentityCase", "VerifyReport",
    "UnknownIdentity", "MissingParam", "REGISTRY",
    "verify", "verify_suite",
    "overpartition_pair_series", "pod_bipartition_series", "divisor_sum_series",
    "__version__",
]

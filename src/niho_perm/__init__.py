"""Permutation trinomials with Niho exponents over GF(5^{2k}).

Exact field arithmetic, unity-circle fractional maps, trinomial permutation
verdicts by two independent methods, exponent-transform equivalences, finite
conjecture checks, and a searchable CLI.
"""

from .errors import (FieldConstructionError, GuardExceededError, NihoPermError,
                     NoInverseError, PoleError, ResidueError, UsageError)
from .field import (FieldElement, FieldParams, frobenius, in_subfield,
                    make_field, norm, trace, tower_field,
                    trace_power_identity_report)
from .report import VerificationReport
from .residues import frac_mod, resolve_residue
from .unity import (UnityGroup, build_map, check_circle_claim,
                    is_permutation_of, mu_check_report, unity_group,
                    unity_permutation_report)

__all__ = [
    "FieldConstructionError", "GuardExceededError", "NihoPermError",
    "NoInverseError", "PoleError", "ResidueError", "UsageError",
    "FieldElement", "FieldParams", "frobenius", "in_subfield", "make_field",
    "norm", "trace", "tower_field", "trace_power_identity_report",
    "VerificationReport", "frac_mod", "resolve_residue",
    "UnityGroup", "build_map", "check_circle_claim",
    "is_permutation_of", "mu_check_report", "unity_group",
    "unity_permutation_report",
]

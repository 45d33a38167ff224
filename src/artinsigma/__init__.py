"""Exact Sigma-invariant verdicts and Artin-kernel homology for even Artin
groups of FC type.

The library decides strong link conditions on living subgraphs, emits
membership and finiteness verdicts with machine-readable justifications, and
computes the F[t, t^-1]-module structure of kernel homology two independent
ways: a closed-form sum of link betti numbers and a twisted chain-complex
oracle diagonalized by Smith normal form.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .characters import (Character, CharacterError, Classification, GraphDomainError,
                         character_from_dict, character_to_dict, classify, is_dominating)
from .conditions import Analysis, ConditionReport, LinkWitness, ZeroCharacterError
from .graphs import (EvenGraph, Finding, GraphFormatError, MaskGraph, ValidationReport,
                     describe_graph, graph_from_dict, graph_to_dict, is_connected, validate_even,
                     validate_fc)
from .homology import (HomologyProfile, SimplicialComplex, TooManyCliques, flag_complex,
                       has_cone_vertex, reduced_homology)
from .laurent import LaurentMatrix, LaurentPoly, laurent_divmod, laurent_gcd, smith_normal_form
from .salvetti import (CrossCheckError, ModulePresentation, OracleTooLarge, TwistedComplex,
                       build_salvetti_complex, cross_check, homology_module)
from .verdicts import (IN, NOT_IN, UNKNOWN, Justification, RuleConflictError, Verdict,
                       fp_verdict, homotopic_sigma_verdict, odd_cycle_condition, sigma_verdict)

__all__ = [name for name in dir() if not name.startswith("_")]

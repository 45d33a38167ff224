"""Exact Sigma-invariant verdicts and Artin-kernel homology for even Artin
groups of FC type.

The library decides strong link conditions on living subgraphs, emits
membership and finiteness verdicts with machine-readable justifications, and
computes the F[t, t^-1]-module structure of kernel homology two independent
ways: a closed-form sum of link betti numbers and a twisted chain-complex
oracle diagonalized by Smith normal form.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .characters import (Character, CharacterError, CenterValues, Classification,
                         center_values, character_from_dict, character_to_dict, classify,
                         is_dominating)
from .conditions import (Analysis, ConditionReport, LinkWitness, ZeroCharacterError,
                         dead_cliques, finite_dimensional_through, kernel_free_rank,
                         living_subgraph, raag_n_link, strong_homotopic_n_link, strong_n_link,
                         strong_p_n_link)
from .graphs import (EvenGraph, Finding, GraphFormatError, ValidationReport, describe_graph,
                     graph_from_dict, graph_to_dict, induced_subgraph, is_connected,
                     is_subgraph, validate_even, validate_fc)
from .homology import (HomologyProfile, SimplicialComplex, TooManyCliques, enumerate_cliques,
                       flag_complex, has_cone_vertex, link, reduced_homology)
from .laurent import (Field, LaurentMatrix, LaurentPoly, laurent_divmod, laurent_gcd, q_poly,
                      smith_normal_form, t_power_minus_one)
from .salvetti import (CrossCheckError, CrossCheckReport, ModulePresentation, OracleTooLarge,
                       TwistedComplex, build_salvetti_complex, coefficient_b, cross_check,
                       homology_module)
from .verdicts import (IN, NOT_IN, UNKNOWN, Justification, RuleConflictError, Verdict,
                       dihedral_sigma_member, fp_verdict, homotopic_sigma_verdict,
                       odd_cycle_condition, product_sigma_member, sigma_verdict)

__all__ = [name for name in dir() if not name.startswith("_")]

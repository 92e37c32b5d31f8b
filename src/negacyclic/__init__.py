"""Ternary negacyclic codes: constructions, exact distances, verification.

The public surface re-exports the field/polynomial substrate, the coset and
code machinery, the distance engines, the family builders, and the
verification harness.
"""

from .cosets import (CosetError, CosetTable, build_cosets, mult_order,
                     weight_class_sizes, weight_classes, wt3)
from .codes import (CodeError, ConstacyclicCode, LinearCode, NegacyclicCode,
                    residue_distance_relation, uv_construct)
from .distance import (DistanceReport, SearchBudget, distance_report,
                       information_set_search, low_weight_search, parse_budget,
                       sphere_packing_max_d, weight_distribution)
from .families import (Claim, FamilyError, build_family1, build_family2,
                       build_family3, build_family4, family1_eligible,
                       family4_multiplier)
from .ff import (Field, FieldElement, FieldError, SubfieldEmbedding,
                 get_embedding, is_prime, make_field, primitive_element,
                 root_of_unity, trace)
from .poly import Poly, PolyError, minimal_polynomial
from .verify import (Manifest, ResultCache, best_code_search,
                     cached_distance_report, descriptor_hash, render_scope,
                     verify_claims)

__all__ = [name for name in dir() if not name.startswith("_")]

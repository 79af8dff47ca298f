"""Exact arithmetic for quasisymmetric functions in the monomial basis."""

from types import ModuleType as _ModuleType

from .algebra import (
    QSymElement,
    TensorElement,
    contract_product,
    coproduct_at,
    coproduct_first,
    coproduct_second,
    counit_at,
    counit_first,
    counit_second,
    map_slot,
    monomial,
    tensor,
    triple_tensor,
)
from .chow import (
    BetaElement,
    deep_stratum_class,
    gluing_matches_coproduct,
    gluing_pullback,
    marked_point_involution,
    truncate_tensor,
)
from .compositions import (
    Composition,
    enumerate_compositions,
    enumerate_lyndon,
    lyndon_count,
    mobius,
)
from .expansion import (
    SparsePolynomial,
    expand,
    face_map,
    from_polynomial,
    is_quasisymmetric,
    lyndon_generation_matrix,
    lyndon_monomial_multisets,
    rational_rank,
    verify_lyndon_free_generation,
)
from .syntax import (
    ParseError,
    format_beta,
    format_composition,
    format_polynomial,
    format_qsym,
    format_tensor,
    parse_beta,
    parse_composition,
    parse_qsym,
    parse_tensor,
)
from .verification import Check, SUITES, run_all, run_suite

__all__ = sorted(  # the public names imported above, not the submodules
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"

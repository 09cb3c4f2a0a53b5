"""Exact formal-calculus toolkit: truncated rational power series, the
derivation ring behind higher derivatives of composites, attached umbral
sequences with their operators and shifts, and the quadratic Virasoro
representation whose modes generalize the umbral shift."""

from .errors import (
    ConstantTermNotOne,
    DomainError,
    IndexOutOfRange,
    InnerConstantTerm,
    NonzeroConstantTerm,
    NotDeltaSeries,
    NotHomogeneous,
    OrderTooSmall,
    UnknownIdentityTag,
    UnsupportedVariable,
    ZeroConstantTerm,
)
from .genseries import GenSeries
from .polyring import (
    MultiPoly,
    derivation,
    derivation_powers,
    exp_derivation,
    generic_composite_series,
    specialize_fock,
    specialize_x,
    specialize_y,
    to_univar,
)
from .series import (
    Rational,
    TruncatedSeries,
    exp_series,
    exp_t,
    log_series,
    shift_multiplier,
)
from .umbral import (
    LinearFunctional,
    attached_basis_expansion,
    attached_generating_series,
    attached_polynomial,
    check_adjoint,
    composed_expansion,
    functional_shift,
    pairing,
    pairing_series,
    umbral_operator,
    umbral_shift,
)
from .univar import UnivarPoly, exp_w_ddx
from .virasoro import (
    basis_monomials,
    binom_general,
    fock_derivation,
    heisenberg,
    heuristic_bracket_cells,
    ladder_closed,
    ladder_value,
    lowering_powers,
    lowest_weight_vector,
    mode_shift,
    sheffer_pair,
    virasoro,
    weight,
)

__all__ = [name for name in dir() if not name.startswith("_")]

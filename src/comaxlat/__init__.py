"""Finite multiplicative lattices.

Validation of the multiplicative-lattice axioms on tabular input,
comaximal factorization into prime-radical / primary / prime-power
parts, executable checkers for the supporting structure theorems, and
exhaustive enumeration of all small multiplicative lattices up to
isomorphism.
"""

from .core import (
    Elt,
    ElementProfile,
    FiniteMultLattice,
    InvalidSpec,
    LatticeError,
    LatticeProfile,
    LatticeSpec,
    MAX_ELEMENTS,
    SizeCapExceeded,
    ValidationError,
    Violation,
    validate_lattice,
)
from .enumeration import (
    DEFAULT_SIZE_CAP,
    HARD_SIZE_CAP,
    OrderTable,
    UnknownPredicate,
    canonical_form,
    enumerate_bounded_lattices,
    enumerate_multiplications,
    enumerated_universe,
    search,
)
from .factorize import (
    ClassificationReport,
    Factorization,
    FactorKind,
    NoFactorization,
    PreconditionViolated,
    TopElement,
    classify_lattice,
    factor,
    oracle_factorizations,
    refine_by_radical,
)
from .latfile import ParseError, load_lattice, parse_lattice_file, serialize_spec
from .presets import PRESET_NAMES, preset, preset_spec
from .theorems import (
    THEOREM_IDS,
    TheoremEntry,
    TheoremReport,
    UnknownTheoremId,
    check_entry,
    run_theorem_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Elt",
    "ElementProfile",
    "FiniteMultLattice",
    "InvalidSpec",
    "LatticeError",
    "LatticeProfile",
    "LatticeSpec",
    "MAX_ELEMENTS",
    "ValidationError",
    "Violation",
    "validate_lattice",
    "DEFAULT_SIZE_CAP",
    "HARD_SIZE_CAP",
    "OrderTable",
    "SizeCapExceeded",
    "UnknownPredicate",
    "canonical_form",
    "enumerate_bounded_lattices",
    "enumerate_multiplications",
    "enumerated_universe",
    "search",
    "ClassificationReport",
    "Factorization",
    "FactorKind",
    "NoFactorization",
    "PreconditionViolated",
    "TopElement",
    "classify_lattice",
    "factor",
    "oracle_factorizations",
    "refine_by_radical",
    "ParseError",
    "load_lattice",
    "parse_lattice_file",
    "serialize_spec",
    "PRESET_NAMES",
    "preset",
    "preset_spec",
    "THEOREM_IDS",
    "TheoremEntry",
    "TheoremReport",
    "UnknownTheoremId",
    "check_entry",
    "run_theorem_suite",
    "__version__",
]

"""Palindromic factors of finite words and lazily generated infinite words."""

from .analysis import (
    ClosureReport,
    CompleteReturns,
    PalReport,
    StabilizedPalSet,
    complete_first_returns,
    pal_set,
    reversal_closure_check,
    stabilized_pal_set,
)
from .claims import (
    CLAIMS,
    ClaimVerdict,
    ReturnFamilyClaim,
    manifest,
    minpal_scan,
    replay_return_witness,
    run_all,
    run_claim,
    run_return_family_claim,
)
from .generators import (
    FixedPointStream,
    ImageStream,
    PeriodicStream,
    ReversalClosureStream,
    UnknownGeneratorError,
    preset_names,
    resolve_generator,
)
from .paltree import PalTree
from .search import (
    ConstraintSet,
    FamilyTemplate,
    deepest_word,
    enumerate_words,
    forbid_other_palindromes,
    scan_complete_returns,
)
from .streams import PrefixStream, ShiftedStream
from .words import (
    Morphism,
    alphabet,
    alphabet_of,
    canonical_form,
    iso_class,
    least_period,
)

__version__ = "0.1.0"

__all__ = [
    "CLAIMS",
    "ClaimVerdict",
    "ClosureReport",
    "CompleteReturns",
    "ConstraintSet",
    "FamilyTemplate",
    "FixedPointStream",
    "ImageStream",
    "Morphism",
    "PalReport",
    "PalTree",
    "PeriodicStream",
    "PrefixStream",
    "ReturnFamilyClaim",
    "ReversalClosureStream",
    "ShiftedStream",
    "StabilizedPalSet",
    "UnknownGeneratorError",
    "alphabet",
    "alphabet_of",
    "canonical_form",
    "complete_first_returns",
    "deepest_word",
    "enumerate_words",
    "forbid_other_palindromes",
    "iso_class",
    "least_period",
    "manifest",
    "minpal_scan",
    "pal_set",
    "preset_names",
    "replay_return_witness",
    "resolve_generator",
    "reversal_closure_check",
    "run_all",
    "run_claim",
    "run_return_family_claim",
    "scan_complete_returns",
    "stabilized_pal_set",
]

"""Dynamic level sets.

A logical level set (the preimage of a boolean function at a value) is kept
invariant while its physical encoding is recomputed at every step by an
invertible map selected per step and fed fresh random bits.  This package
provides the bit-level core, the per-step realization engine with exact
perfect-secrecy verification, a block-wise stream transform that the inverse
maps undo, a Turing machine driver whose instruction trace selects
the maps, and a minimal self-modifying active element machine that realizes
each step as a firing pattern.
"""

from dynls.bitcore import (
    Affine,
    BitVec,
    BoolFn,
    InvertibleMap,
    LevelSet,
    NotABijectionError,
    PermTable,
    XorFamily,
    is_bijection,
    level_set,
    random_affine_invertible,
)
from dynls.dls_engine import (
    DlsDecomposition,
    Realization,
    derived_affine_family,
    derived_xor_family,
    realize_step,
    sampled_secrecy_report,
    verify_invariance,
    verify_perfect_secrecy,
)
from dynls.rand import (
    OsEntropySource,
    QrngSource,
    SeededSource,
    SourceFailure,
)
from dynls.tm import (
    TmConfig,
    TmProgram,
    binary_incrementer,
    endless_counter,
    run,
    transition_components,
)
from dynls.blockstream import BitStream, StreamTransform
from dynls.aem import (
    AemProgram,
    Machine,
    compile_step,
    parse,
    print_program,
    readout_physical,
    run_utm_realization,
)

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "AemProgram",
    "BitStream",
    "BitVec",
    "BoolFn",
    "DlsDecomposition",
    "InvertibleMap",
    "LevelSet",
    "Machine",
    "NotABijectionError",
    "OsEntropySource",
    "PermTable",
    "QrngSource",
    "Realization",
    "SeededSource",
    "SourceFailure",
    "StreamTransform",
    "TmConfig",
    "TmProgram",
    "XorFamily",
    "binary_incrementer",
    "compile_step",
    "derived_affine_family",
    "derived_xor_family",
    "endless_counter",
    "is_bijection",
    "level_set",
    "parse",
    "print_program",
    "random_affine_invertible",
    "readout_physical",
    "realize_step",
    "run",
    "run_utm_realization",
    "sampled_secrecy_report",
    "transition_components",
    "verify_invariance",
    "verify_perfect_secrecy",
    "__version__",
]

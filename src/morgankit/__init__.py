"""morgankit: sequent calculi for De Morgan and semi-De Morgan algebras.

Terminating backward proof search for G3SDM/G3DM (and G3ip, G3ip+Gem-at as
embedding targets), Craig interpolant extraction, the six syntactic
translations with an embedding-verification harness, and a finite-algebra
semantic oracle.
"""

from .terms import (
    BASE, BOT, CL, CLASS, DM, DOUBLED, INT, PRIMED, SDM, TOP_ALG, TOP_IMP,
    And, Imp, Neg, Or, Sequent, Struct, Term, Var,
    dm_weight, plain, sdm_weight, sequent, starred, variables,
)
from .syntax import (
    NamespaceError, ParseError,
    parse_partition, parse_sequent, parse_structure, parse_term,
    print_sequent, print_structure, print_term,
    sequent_from_obj, sequent_to_obj, term_from_obj, term_to_obj,
)
from .calculi import CalculusMismatchError, RuleInstance, expand
from .search import (
    Derivation, InvalidDerivationError, SearchEngine,
    check_derivation, check_derivation_report, default_engine, derivable,
    derive, normalize_calculus, proof_from_obj, proof_to_obj, render,
)
from .interpolation import (
    InterpolationResult, Partition, PartitionMismatchError,
    all_partitions, interpolate, verify_interpolant,
)
from .translations import (
    ClassRegistry, EmbeddingReport, EMBEDDING_KINDS,
    check_embedding, double_negate, f_godel_gentzen, f_sequent, g_glivenko,
    g_sequent, h_sequent, h_to_cl, k_sequent, k_to_int, t_flatten, t_sequent,
)
from .algebras import (
    FiniteAlgebra, check_variety, dm4, enumerate_algebras, evaluate, refute,
    valid,
)
from .corpus import CorpusConfig, derivable_corpus, generate_sequents, random_term

__version__ = "0.1.0"

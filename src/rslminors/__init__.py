"""Algebraic support-recovery toolkit for rank-metric syndrome batches.

Given N syndromes of errors sharing one low-dimensional support subspace,
the toolkit models the recovery problem through maximal minors of a rank-
deficient matrix, linearizes the resulting bilinear system at growing degree,
and reads the support off the unique projective solution.  It also carries
the matching combinatorial machinery: exact equation/monomial counts, bit-
cost estimation with shortening and weight-reduction strategies, and Monte
Carlo checks of the codeword-count statistics that justify them.
"""

__version__ = "1.0.0"

from .counting import gauss_binom, sphere_size
from .estimator import (
    CostReport,
    bit_cost,
    codeword_stats,
    count_Mb,
    count_Nb,
    delta_max,
    ghpt_cost,
    min_b,
    optimize,
    run_table2,
)
from .fields import ExtensionField, PrimeField, extension_field, prime_field
from .instance import (
    RslInstance,
    RslParams,
    SecretWitness,
    StrategyParams,
    check_assumption1,
    gen_instance,
    shorten,
    strategy_params,
    verify_support,
)
from .instance_io import (
    InstanceFormatError,
    load_instance,
    read_instance,
    save_instance,
    write_instance,
)
from .matrix import FieldMatrix
from .modeling import (
    BilinearSystem,
    MacaulayMatrix,
    MacaulayTooLarge,
    build_macaulay,
    build_system,
    unfold_system,
)
from .solver import (
    AttackResult,
    ExtractionError,
    RecoveredSupport,
    attack,
    plucker_reconstruct,
    rank1_extract,
    recover_support,
    solve_linearized,
)

__all__ = [
    "__version__",
    "AttackResult",
    "BilinearSystem",
    "CostReport",
    "ExtensionField",
    "ExtractionError",
    "FieldMatrix",
    "InstanceFormatError",
    "MacaulayMatrix",
    "MacaulayTooLarge",
    "PrimeField",
    "RecoveredSupport",
    "RslInstance",
    "RslParams",
    "SecretWitness",
    "StrategyParams",
    "attack",
    "bit_cost",
    "build_macaulay",
    "build_system",
    "check_assumption1",
    "codeword_stats",
    "count_Mb",
    "count_Nb",
    "delta_max",
    "extension_field",
    "gauss_binom",
    "gen_instance",
    "ghpt_cost",
    "load_instance",
    "min_b",
    "optimize",
    "plucker_reconstruct",
    "prime_field",
    "rank1_extract",
    "read_instance",
    "recover_support",
    "run_table2",
    "save_instance",
    "shorten",
    "solve_linearized",
    "sphere_size",
    "strategy_params",
    "unfold_system",
    "verify_support",
    "write_instance",
]

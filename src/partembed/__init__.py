"""Partial orders on integral partitions: decide, certify, reproduce.

Four relations between integral partitions are implemented, each with a
machine-checkable witness or refutation certificate:

* exact embeddability (decision bin packing with an assignment witness),
* supermajorization (threshold tail-sum dominance),
* bulk embeddability (l_s-norm dominance for every s in [1, oo], with an
  exact rational decision procedure for power-of-q partitions),
* stable embeddability (existence of a catalyst partition nu with
  lambda x nu embedding into mu x nu, constructed level by level for
  power-of-q partitions).
"""

from .core import (
    BaseMismatch,
    ContractViolation,
    EmptyPartition,
    InvalidBase,
    InvalidEntry,
    InvalidExponent,
    InvalidScalar,
    NotPowerOfBase,
    Partition,
    PartitionError,
    PowerPartition,
    add,
    common_power_base,
    from_base_counts,
    from_entries,
    product,
    power,
    scale,
    to_base_counts,
)
from .norms import (
    INF,
    BulkVerdict,
    EqualityPoint,
    NormProfile,
    dominates_all_s,
    exact_dominates_powerq,
    norm_profile,
    p_norm,
    power_sum,
)
from .orders import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    EmbeddingWitness,
    Supermajorization,
    embed_powerq,
    embeds,
    first_fit,
    supermajorizes,
)
from .stablep import (
    FAILS,
    HOLDS,
    UNKNOWN,
    Pair,
    RelationReport,
    StableRefutation,
    StableVerdict,
    StableWitness,
    StepRecord,
    construct_nu,
    normalize_pair,
)

__version__ = "0.1.0"

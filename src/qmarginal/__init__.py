"""Local-consistency problems for density matrices.

Decide whether prescribed reduced states admit a global state, construct
one as a factor G G^dag of width the square-sum rank bound (a least-squares
search over G), and push its rank further down greedily, with
fermionic/bosonic sector and quantum-channel variants.
"""
from ._engine import (FeasibilityResult, ReductionError, ReductionStep,
                      ReductionTrace, ResidualReport)
from .channels import (ChannelFeasibilityError, ChannelInstance, ChannelRepr,
                       LocalChannel, apply_channel, channel_instance_to_marginal,
                       choi_from_kraus, kraus_from_choi, reduce_kraus_rank,
                       sub_channel)
from .gallery import (maximally_mixed_klocal_instance, random_feasible_instance,
                      ring_graph_state)
from .hilbert import (PauliExclusionError, SectorEmbedding, embed_with_identity,
                      partial_trace, sector_isometry, sector_partial_trace,
                      support_projector)
from .marginal import (ConsistencyInstance, MarginalConstraint, barvinok_bound,
                       check_consistency, find_feasible, theorem1_bound)
from .numerics import (eig_hermitian, frobenius_inner, numerical_rank,
                       psd_project)
from .reduction import descent_direction, reduce_rank, step_length
from .sector import (SectorInstance, bosonic_maximally_mixed_2, bosonic_sigma_p,
                     reduce_rank_sector)

__version__ = "0.1.0"

__all__ = [
    "ChannelFeasibilityError", "ChannelInstance", "ChannelRepr",
    "ConsistencyInstance", "FeasibilityResult", "LocalChannel",
    "MarginalConstraint", "PauliExclusionError", "ReductionError",
    "ReductionStep", "ReductionTrace", "ResidualReport", "SectorEmbedding",
    "SectorInstance", "apply_channel", "barvinok_bound",
    "bosonic_maximally_mixed_2", "bosonic_sigma_p",
    "channel_instance_to_marginal", "check_consistency", "choi_from_kraus",
    "descent_direction", "eig_hermitian", "embed_with_identity",
    "find_feasible", "frobenius_inner", "kraus_from_choi",
    "maximally_mixed_klocal_instance", "numerical_rank", "partial_trace",
    "psd_project", "random_feasible_instance", "reduce_kraus_rank",
    "reduce_rank", "reduce_rank_sector", "ring_graph_state",
    "sector_isometry", "sector_partial_trace", "step_length",
    "sub_channel", "support_projector", "theorem1_bound",
]

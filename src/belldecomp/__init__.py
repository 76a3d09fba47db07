"""Bell-basis decomposition of multi-qubit teleportation through general two-qubit channels.

The receiver's post-measurement state is predicted as a tensor product of
2x2 per-pair blocks applied to the input amplitudes, and every prediction
can be cross-checked against a brute-force full state-vector oracle.
"""

from .channel import (
    Channel,
    EntangledPair,
    bell_state,
    pair_determinant,
)
from .decomposition import (
    DEFAULT_INVERTIBILITY_TOL,
    NotInvertibleError,
    PairingConvention,
    decomposition_matrix,
    inverse_sub_matrix,
    is_proportional_to_unitary,
    sub_matrix,
    validate_outcome,
)
from .oracle import (
    ORACLE_CAP,
    CrossCheckReport,
    bell_project,
    cross_check,
    joint_state,
    rearrange_for_measurement,
)
from .protocol import (
    ENUMERATION_CAP,
    ChannelReport,
    OutcomeRecord,
    OutcomeTable,
    PairDiagnostics,
    TeleportationInstance,
    channel_criterion,
    collapsed_state,
    enumerate_outcomes,
    random_channel,
    random_instance,
    random_pair,
    random_state,
    recover,
    sample_outcome,
)
from .tensor import (
    DEFAULT_EQ_TOL,
    StateVector,
    fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ChannelReport",
    "CrossCheckReport",
    "DEFAULT_EQ_TOL",
    "DEFAULT_INVERTIBILITY_TOL",
    "ENUMERATION_CAP",
    "EntangledPair",
    "NotInvertibleError",
    "ORACLE_CAP",
    "OutcomeRecord",
    "OutcomeTable",
    "PairDiagnostics",
    "PairingConvention",
    "StateVector",
    "TeleportationInstance",
    "bell_project",
    "bell_state",
    "channel_criterion",
    "collapsed_state",
    "cross_check",
    "decomposition_matrix",
    "enumerate_outcomes",
    "fidelity",
    "inverse_sub_matrix",
    "is_proportional_to_unitary",
    "joint_state",
    "pair_determinant",
    "random_channel",
    "random_instance",
    "random_pair",
    "random_state",
    "rearrange_for_measurement",
    "recover",
    "sample_outcome",
    "sub_matrix",
    "validate_outcome",
    "__version__",
]

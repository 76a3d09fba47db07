"""The exported names: every ``__all__`` entry resolves, and the exports are exactly these."""

import importlib

import belldecomp

MODULES = ["channel", "cli", "decomposition", "oracle", "protocol", "tensor"]

# The package's public API.  Pinning it keeps deleted wrappers and helpers
# from coming back as exports unnoticed.
PUBLIC = {
    "Channel", "ChannelReport", "CrossCheckReport", "DecompositionMatrix",
    "DEFAULT_EQ_TOL", "DEFAULT_INVERTIBILITY_TOL", "ENUMERATION_CAP", "EntangledPair",
    "NotInvertibleError", "ORACLE_CAP", "OutcomeRecord", "PairDiagnostics",
    "PairingConvention", "StateVector", "TeleportationInstance", "bell_project",
    "bell_state", "bell_transform", "channel_criterion", "collapsed_state", "concurrence",
    "cross_check", "decomposition_matrix", "enumerate_outcomes", "fidelity",
    "inverse_sub_matrix", "is_proportional_to_unitary", "joint_state", "pair_determinant",
    "permute_qubits", "random_channel", "random_instance", "random_pair", "random_state",
    "rearrange_for_measurement", "recover", "sample_outcome", "sub_matrix",
    "validate_outcome", "validate_pair", "__version__",
}

# Exported by a module but not by the package.
MODULE_ONLY = {
    "NORM_WARN_TOL", "main", "BellOutcome", "SIGMA", "inverse_pair_blocks", "pair_blocks",
}


def test_exports_resolve_and_are_exactly_the_public_api():
    assert set(belldecomp.__all__) == PUBLIC
    for mod in [belldecomp] + [importlib.import_module(f"belldecomp.{m}") for m in MODULES]:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], mod.__name__
        assert set(mod.__all__) <= PUBLIC | MODULE_ONLY, mod.__name__

"""The package surface: the exported names, and no private helper left unused."""

import ast
import importlib
from pathlib import Path

import belldecomp

MODULES = ["channel", "cli", "decomposition", "oracle", "protocol", "tensor"]

# The package's public API.  Pinning it keeps deleted wrappers and helpers
# from coming back as exports unnoticed.
PUBLIC = {
    "Channel", "ChannelReport", "CrossCheckReport", "DecompositionMatrix",
    "DEFAULT_EQ_TOL", "DEFAULT_INVERTIBILITY_TOL", "ENUMERATION_CAP", "EntangledPair",
    "NotInvertibleError", "ORACLE_CAP", "OutcomeRecord", "PairDiagnostics",
    "PairingConvention", "StateVector", "TeleportationInstance", "bell_project",
    "bell_state", "channel_criterion", "collapsed_state", "concurrence",
    "cross_check", "decomposition_matrix", "enumerate_outcomes", "fidelity",
    "inverse_sub_matrix", "is_proportional_to_unitary", "joint_state", "pair_determinant",
    "permute_qubits", "random_channel", "random_instance", "random_pair", "random_state",
    "rearrange_for_measurement", "recover", "sample_outcome", "sub_matrix",
    "validate_outcome", "__version__",
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


def test_every_private_module_level_name_is_used():
    """A private function, class or constant nothing in the package reads is dead code."""
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(belldecomp.__file__).parent.glob("*.py"))
    }
    defined = set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                targets = []
            defined |= {(name, t) for t in targets if t.startswith("_") and not t.startswith("__")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, "no private names found; the scan is broken"
    assert sorted((m, t) for m, t in defined if t not in used) == []

"""The package surface: the exported names, no private helper left unused, and an oracle
that computes its side of the cross check without the block code."""

import ast
import importlib
from pathlib import Path

import belldecomp

MODULES = ["channel", "cli", "decomposition", "oracle", "protocol", "tensor"]

# The package's public API.  Pinning it keeps deleted wrappers and helpers
# from coming back as exports unnoticed.
PUBLIC = {
    "Channel", "ChannelReport", "CrossCheckReport",
    "DEFAULT_EQ_TOL", "DEFAULT_INVERTIBILITY_TOL", "ENUMERATION_CAP", "EntangledPair",
    "NotInvertibleError", "ORACLE_CAP", "OutcomeRecord", "OutcomeTable", "PairDiagnostics",
    "PairingConvention", "StateVector", "TeleportationInstance", "bell_project",
    "bell_state", "channel_criterion", "collapsed_state",
    "cross_check", "decomposition_matrix", "enumerate_outcomes", "fidelity",
    "inverse_sub_matrix", "is_proportional_to_unitary", "joint_state", "pair_determinant",
    "random_channel", "random_instance", "random_pair", "random_state",
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


def _defined_names(tree: ast.Module) -> set[str]:
    """The functions, classes and names a module assigns at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in nodes if isinstance(t, ast.Name)}
    return names


def test_every_private_module_level_name_is_used():
    """A private function, class or constant nothing in the package reads is dead code."""
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(belldecomp.__file__).parent.glob("*.py"))
    }
    defined = {
        (name, t)
        for name, tree in trees.items()
        for t in _defined_names(tree)
        if t.startswith("_") and not t.startswith("__")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, "no private names found; the scan is broken"
    assert sorted((m, t) for m, t in defined if t not in used) == []


# The names of decomposition and protocol that carry no block arithmetic: the
# instance, the convention and the outcome type and its check.
ORACLE_MAY_USE = {"TeleportationInstance", "PairingConvention", "BellOutcome", "validate_outcome"}

# The oracle functions that read block predictions, to compare them.
COMPARATORS = {"_cross_check", "_reconstruction_diff"}


def _module_tree(name: str) -> ast.Module:
    return ast.parse((Path(belldecomp.__file__).parent / f"{name}.py").read_text())


def _names_read(node: ast.AST) -> set[str]:
    """Names loaded, attributes read and names imported anywhere inside ``node``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names |= {a.name for a in n.names}
    return names


def test_the_oracle_uses_no_block_code():
    """Outside the comparators, nothing in the oracle reaches decomposition or protocol
    beyond the instance types, and only ``_cross_check`` reads the predicted outcome table."""
    block_side = (
        _defined_names(_module_tree("decomposition")) | _defined_names(_module_tree("protocol"))
    ) - ORACLE_MAY_USE
    assert {
        "SIGMA", "pair_blocks", "_contract_pair", "_outcome_table", "_outcome_chunks"
    } <= block_side
    body = [
        (getattr(node, "name", f"line {node.lineno}"), node)
        for node in _module_tree("oracle").body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    guarded = [(name, node) for name, node in body if name not in COMPARATORS]
    assert {
        "joint_state", "rearrange_for_measurement", "_measurement_state", "bell_project",
        "_project", "cross_check",
    } <= {name for name, _ in guarded}
    reached = {name: sorted(_names_read(node) & block_side) for name, node in guarded}
    assert {name: used for name, used in reached.items() if used} == {}
    assert [name for name, node in body if "_outcome_chunks" in _names_read(node)] == [
        "_cross_check"
    ]

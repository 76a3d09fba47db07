"""The package surface: the exported names, the refusal of an argument of the wrong type,
no private helper left unused, and an oracle that computes its side of the cross check
without the block code."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import belldecomp
from belldecomp import PairingConvention

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
    "validate_outcome", "VerificationReport", "verify_instance", "__version__",
}

# Exported by a module but not by the package: the CLI's entry point.
MODULE_ONLY = {"main"}

# The library modules, in the order the package star-imports them.
LIBRARY = ["channel", "decomposition", "oracle", "protocol", "tensor"]

# Public in their modules, importable by module path, and no part of the package API.
MODULE_PATH_ONLY = {
    "channel": ["NORM_WARN_TOL"],
    "decomposition": ["SIGMA", "BellOutcome", "pair_blocks", "inverse_pair_blocks"],
}


def test_exports_resolve_and_are_exactly_the_public_api():
    assert set(belldecomp.__all__) == PUBLIC
    for mod in [belldecomp] + [importlib.import_module(f"belldecomp.{m}") for m in MODULES]:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], mod.__name__
        assert set(mod.__all__) <= PUBLIC | MODULE_ONLY, mod.__name__


def test_the_package_api_is_the_library_modules_lists():
    """Each public name is declared once, in its module's ``__all__``."""
    expected = ["__version__"]
    for m in LIBRARY:
        expected += importlib.import_module(f"belldecomp.{m}").__all__
    assert belldecomp.__all__ == expected


def test_star_import_binds_exactly_the_package_api():
    namespace = {}
    exec("from belldecomp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(belldecomp.__all__)
    assert all(namespace[name] is getattr(belldecomp, name) for name in belldecomp.__all__)


_INST = belldecomp.random_instance(1, np.random.default_rng(0), PairingConvention.BOB_HOLDS_SECOND)
_CHANNEL, _CONV = _INST.channel, _INST.convention
_PAIR = "pair must be an EntangledPair, got Channel"
_INSTANCE = "inst must be a TeleportationInstance, got Channel"

# A Channel passed for a pair or an instance, and an instance for a collapsed state:
# each call and the refusal it must raise.
WRONG_TYPES = {
    "sub_matrix": (lambda: belldecomp.sub_matrix(_CHANNEL, 1, _CONV), _PAIR),
    "inverse_sub_matrix": (lambda: belldecomp.inverse_sub_matrix(_CHANNEL, 1, _CONV), _PAIR),
    "pair_determinant": (lambda: belldecomp.pair_determinant(_CHANNEL), _PAIR),
    "collapsed_state": (lambda: belldecomp.collapsed_state(_CHANNEL, (1,)), _INSTANCE),
    "recover": (
        lambda: belldecomp.recover(belldecomp.collapsed_state(_INST, (1,)), _CHANNEL, (1,)),
        _INSTANCE,
    ),
    "enumerate_outcomes": (lambda: belldecomp.enumerate_outcomes(_CHANNEL), _INSTANCE),
    "sample_outcome": (lambda: belldecomp.sample_outcome(_CHANNEL, 0), _INSTANCE),
    "cross_check": (lambda: belldecomp.cross_check(_CHANNEL), _INSTANCE),
    "verify_instance": (lambda: belldecomp.verify_instance(_CHANNEL), _INSTANCE),
    "joint_state": (lambda: belldecomp.joint_state(_CHANNEL), _INSTANCE),
    "recover-collapsed": (
        lambda: belldecomp.recover(_INST, _INST, (1,)),
        "collapsed must be a StateVector, got TeleportationInstance",
    ),
}


@pytest.mark.parametrize("name", list(WRONG_TYPES))
def test_an_argument_of_the_wrong_type_is_refused(name):
    """Each raised AttributeError on an attribute the argument lacks."""
    call, message = WRONG_TYPES[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_module_path_names_stay_out_of_the_package():
    for m, names in MODULE_PATH_ONLY.items():
        mod = importlib.import_module(f"belldecomp.{m}")
        for name in names:
            assert hasattr(mod, name) and name not in mod.__all__, (m, name)
            assert not hasattr(belldecomp, name), name


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
# instance, the convention, the outcome type and its check, and the default
# invertibility tolerance.
ORACLE_MAY_USE = {
    "TeleportationInstance", "PairingConvention", "BellOutcome", "validate_outcome",
    "DEFAULT_INVERTIBILITY_TOL",
}

# The one oracle function that reads block predictions, to compare them.
COMPARATOR = "_oracle_pass"


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
    """Outside the comparison, nothing in the oracle reaches decomposition or protocol
    beyond the instance types, and only ``_oracle_pass`` reads the predictions."""
    block_side = (
        _defined_names(_module_tree("decomposition")) | _defined_names(_module_tree("protocol"))
    ) - ORACLE_MAY_USE
    assert {
        "SIGMA", "pair_blocks", "_contract_pair", "_outcome_chunks", "_normalize_rows",
        "_fidelity_rows", "_chunk_frames",
    } <= block_side
    body = [
        (getattr(node, "name", f"line {node.lineno}"), node)
        for node in _module_tree("oracle").body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    guarded = [(name, node) for name, node in body if name != COMPARATOR]
    assert {
        "joint_state", "rearrange_for_measurement", "_residual_state", "_bra_pass",
        "bell_project", "cross_check", "verify_instance",
    } <= {name for name, _ in guarded}
    reached = {name: sorted(_names_read(node) & block_side) for name, node in guarded}
    assert {name: used for name, used in reached.items() if used} == {}
    assert [name for name, node in body if "_outcome_chunks" in _names_read(node)] == [COMPARATOR]


def test_the_cli_runs_no_oracle_code_of_its_own():
    """``cli`` imports only public names from ``oracle``, and ``verify`` takes every
    figure from ``verify_instance``: it builds no outcome table."""
    tree = _module_tree("cli")
    imported = [
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "oracle"
        for a in node.names
    ]
    assert "verify_instance" in imported
    assert [name for name in imported if name.startswith("_")] == []
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "verify_instance" in _names_read(functions["cmd_verify"])
    for name in ("cmd_verify", "_verify_lines"):
        assert "enumerate_outcomes" not in _names_read(functions[name]), name

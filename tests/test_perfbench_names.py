"""The names the benchmark scripts under ``perfbench/`` read from creflow still exist.

``perfbench/test_smoke.py`` is outside the Tier-1 test paths, so a deleted or
renamed public name would first show up when the benchmark runs. Each script
is parsed, not imported: every ``from creflow... import X`` must resolve, and
every ``<module>.<attr>`` must exist where ``<module>`` is a name the script
bound to a creflow module by a ``from creflow... import``.
"""

import ast
import importlib
import importlib.util
import os
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SCRIPTS = sorted(name for name in os.listdir(PERFBENCH) if name.endswith(".py"))


def resolve(module, name):
    """``from module import name`` as Python resolves it, or None if it fails."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    if hasattr(parent, "__path__"):  # a package: the name may be a submodule
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return None
    return None


def missing_names(source, filename):
    """The creflow names a script imports or reads off a creflow module that do not exist."""
    tree = ast.parse(source, filename)
    missing, modules = [], {}  # local name -> the creflow module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "creflow":
            for alias in node.names:
                target = resolve(node.module, alias.name)
                if target is None:
                    missing.append(f"from {node.module} import {alias.name}")
                elif isinstance(target, types.ModuleType):
                    modules[alias.asname or alias.name] = target
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr} (line {node.lineno})")
    return missing


@pytest.mark.parametrize("script", SCRIPTS)
def test_perfbench_reads_only_existing_names(script):
    with open(os.path.join(PERFBENCH, script)) as fh:
        missing = missing_names(fh.read(), script)
    assert not missing, f"{script} reads names creflow no longer has: {missing}"


def test_guard_sees_a_missing_name():
    source = "from creflow import ltlf, nothing\nfrom creflow.flow import gone\nltlf.absent\n"
    assert missing_names(source, "probe.py") == [
        "from creflow import nothing", "from creflow.flow import gone", "creflow.ltlf.absent (line 3)"]

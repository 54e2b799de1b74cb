"""The search and proposer packages load a submodule only once one of its
names is used, and every re-exported name is the submodule's own object."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import axiomforge

PACKAGES = ["axiomforge.search", "axiomforge.proposer"]


def _fresh(probe: str) -> str:
    """The last line `probe` prints when run in a fresh interpreter."""
    paths = [str(Path(axiomforge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_import_loads_no_submodule(package):
    probe = f"import json, sys, {package}; print(json.dumps(sorted(sys.modules)))"
    loaded = [name for name in json.loads(_fresh(probe)) if name.startswith("axiomforge")]
    assert loaded == ["axiomforge", package]


@pytest.mark.parametrize("package", PACKAGES)
def test_first_use_loads_only_the_defining_submodule(package):
    # search.config imports search.candidate; proposer.oracles imports
    # proposer.context.
    name = {"axiomforge.search": "SearchConfig", "axiomforge.proposer": "builtin_script"}[package]
    probe = (
        f"import json, sys, {package}; {package}.{name}; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith('{package}.'))))"
    )
    expected = {
        "axiomforge.search": ["axiomforge.search.candidate", "axiomforge.search.config"],
        "axiomforge.proposer": ["axiomforge.proposer.context", "axiomforge.proposer.oracles"],
    }[package]
    assert json.loads(_fresh(probe)) == expected


def _submodules(package):
    module = importlib.import_module(package)
    return [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(module.__path__)
    ]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_submodules_object(package):
    module = importlib.import_module(package)
    submodules = _submodules(package)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed
        if name in vars(module):  # defined in the package itself
            assert value.__module__ == package
            continue
        holders = [sub for sub in submodules if name in vars(sub)]
        assert holders, name
        assert all(vars(sub)[name] is value for sub in holders), name
        defined_in = getattr(value, "__module__", None)
        assert defined_in is None or defined_in.startswith(f"{package}."), name


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error_naming_the_module(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nothing_here'"):
        module.nothing_here
    assert not hasattr(module, "nothing_here")


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_exported_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(module.__all__)
    assert all(namespace[name] is getattr(module, name) for name in module.__all__)


def test_the_benchmarks_names_resolve():
    from axiomforge import proposer, search
    from axiomforge.proposer import http, oracles
    from axiomforge.search import config

    assert proposer.builtin_script is oracles.builtin_script
    assert proposer.HttpProposalOracle is http.HttpProposalOracle
    assert proposer.HttpDistanceOracle is http.HttpDistanceOracle
    assert proposer.OracleClientConfig is http.OracleClientConfig
    assert proposer.ProposalOracle is oracles.ProposalOracle
    assert search.SearchConfig is config.SearchConfig
    assert callable(search.run_search)


# perfbench/tracing.py wraps these functions at every module attribute that
# holds them, in the modules loaded when it installs, and restores them
# after. A module that first loads while they are wrapped must not bind a
# wrapper for good. The probe loads what the tracer loads, wraps them, runs
# each algorithm once (which loads the rest of search), restores them, and
# prints every module attribute still holding a wrapper.
_WRAP_DURING_FIRST_RUNS = """
import functools, sys
import axiomforge.cli, axiomforge.corpus, axiomforge.distance, axiomforge.planner
import axiomforge.pddl.parser, axiomforge.pddl.printer, axiomforge.proposer.extract
import axiomforge.proposer.http, axiomforge.proposer.oracles, axiomforge.search.candidate
import axiomforge.trajectory
from axiomforge.cli import main

traced = [
    axiomforge.corpus.regression_suite, axiomforge.pddl.parser.parse_domain,
    axiomforge.pddl.parser.link, axiomforge.pddl.printer.print_canonical,
    axiomforge.planner.ground, axiomforge.planner.solve, axiomforge.distance.levenshtein,
    axiomforge.distance.hybrid_rank, axiomforge.proposer.extract.extract_candidates,
    axiomforge.proposer.extract.filter_linkable,
]

def wrap(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper

patched = []
for fn in traced:
    wrapper = wrap(fn)
    for module in [m for name, m in sys.modules.items() if name.startswith("axiomforge")]:
        for attr, value in list(vars(module).items()):
            if value is fn:
                patched.append((module, attr, fn))
                setattr(module, attr, wrapper)
codes = [
    main(["evolve", "corpus:blocksworld", "corpus:blocksworld:restack", "--oracle", "scripted",
          "--algo", algo, "--target-len", "4", "--seed", "1"])
    for algo in ("bfs", "mcts", "genetic", "beam")
]
for module, attr, fn in reversed(patched):
    setattr(module, attr, fn)
left = [f"{name}.{attr}" for name, module in sys.modules.items() if name.startswith("axiomforge")
        for attr, value in vars(module).items()
        if getattr(getattr(value, "__code__", None), "co_name", "") == "wrapper"]
print(codes, sorted(left))
"""


def test_a_module_loaded_while_traced_functions_are_wrapped_keeps_no_wrapper():
    assert _fresh(_WRAP_DURING_FIRST_RUNS) == "[0, 0, 0, 0] []"

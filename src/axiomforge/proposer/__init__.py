"""Candidate rule-edit generation: prompts, HTTP client, scripted replay.

Importing the package loads none of its submodules: each re-exported name
is looked up in the submodule that defines it on first use (PEP 562), so a
run with the scripted oracle never loads the HTTP client.
"""

from importlib import import_module

# re-exported name -> the submodule that defines it
_EXPORTS = {
    "API_KEY_ENV_VAR": "http",
    "AuthError": "http",
    "ExtractionResult": "extract",
    "HttpChatClient": "http",
    "HttpDistanceOracle": "http",
    "HttpProposalOracle": "http",
    "NoScriptMatch": "oracles",
    "OracleClientConfig": "config",
    "ProposalContext": "context",
    "ProposalOracle": "oracles",
    "SYSTEM_PROMPT": "prompts",
    "ScriptEntry": "oracles",
    "ScriptedOracle": "oracles",
    "build_prompt": "prompts",
    "builtin_script": "oracles",
    "crossover_prompt": "prompts",
    "extract_candidates": "extract",
    "filter_linkable": "extract",
    "mutation_prompt": "prompts",
}


def __getattr__(name: str):
    # Not cached in the package: the submodule's attribute is the one
    # object, so a wrapper put there and taken away again leaves no trace.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})


__all__ = sorted(_EXPORTS)

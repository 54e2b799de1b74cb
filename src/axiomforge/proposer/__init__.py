"""Candidate rule-edit generation: prompts, HTTP client, scripted replay.

Importing the package loads none of its submodules: each re-exported name
is looked up in the submodule that defines it on first use (PEP 562), so a
run with the scripted oracle never loads the HTTP client.
"""

from .. import lazy_exports

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
    "ProposalContext": "oracles",
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


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


__all__ = sorted(_EXPORTS)

"""Candidate rule-edit generation: prompts, HTTP client, scripted replay."""

from .context import ProposalContext
from .extract import ExtractionResult, extract_candidates, filter_linkable
from .http import (
    API_KEY_ENV_VAR,
    AuthError,
    HttpChatClient,
    HttpDistanceOracle,
    HttpProposalOracle,
    OracleClientConfig,
)
from .oracles import (
    NoScriptMatch,
    ProposalOracle,
    ScriptEntry,
    ScriptedOracle,
    builtin_script,
)
from .prompts import SYSTEM_PROMPT, build_prompt, crossover_prompt, mutation_prompt

__all__ = [
    "API_KEY_ENV_VAR",
    "AuthError",
    "ExtractionResult",
    "HttpChatClient",
    "HttpDistanceOracle",
    "HttpProposalOracle",
    "NoScriptMatch",
    "OracleClientConfig",
    "ProposalContext",
    "ProposalOracle",
    "SYSTEM_PROMPT",
    "ScriptEntry",
    "ScriptedOracle",
    "build_prompt",
    "builtin_script",
    "crossover_prompt",
    "extract_candidates",
    "filter_linkable",
    "mutation_prompt",
]

"""Where the HTTP oracle sends its requests, how many samples it asks for,
and how long and how often it tries. Kept apart from the client, so that a
command reads these defaults without loading the client."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .. import bounded, check_bounds

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_MODEL = "gpt-4o-mini-2024-07-18"


@dataclass(frozen=True)
class OracleClientConfig:
    base_url: str = DEFAULT_BASE_URL
    model: str = DEFAULT_MODEL
    samples: int = field(default=16, metadata=bounded(1))
    timeout_ms: int = field(default=30_000, metadata=bounded(1))
    max_retries: int = field(default=3, metadata=bounded(0))

    __post_init__ = check_bounds

    @classmethod
    def from_env(cls, **overrides) -> "OracleClientConfig":
        env = {
            "base_url": os.environ.get("AXIOMFORGE_BASE_URL", DEFAULT_BASE_URL),
            "model": os.environ.get("AXIOMFORGE_MODEL", DEFAULT_MODEL),
        }
        env.update(overrides)
        return cls(**env)

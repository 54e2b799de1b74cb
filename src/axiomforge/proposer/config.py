"""Where the HTTP oracle sends its requests, how many samples it asks for,
and how long and how often it tries. Kept apart from the client, so that a
command reads these defaults without loading the client."""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_MODEL = "gpt-4o-mini-2024-07-18"


@dataclass(frozen=True)
class OracleClientConfig:
    base_url: str = DEFAULT_BASE_URL
    model: str = DEFAULT_MODEL
    samples: int = 16
    timeout_ms: int = 30_000
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @classmethod
    def from_env(cls, **overrides) -> "OracleClientConfig":
        env = {
            "base_url": os.environ.get("AXIOMFORGE_BASE_URL", DEFAULT_BASE_URL),
            "model": os.environ.get("AXIOMFORGE_MODEL", DEFAULT_MODEL),
        }
        env.update(overrides)
        return cls(**env)

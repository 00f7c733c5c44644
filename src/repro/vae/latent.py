"""The latent space wrapper used by the Bayesian optimization loop.

A :class:`LatentSpace` bundles a trained VAE with the plan codec so the BO
loop can move between three representations: join trees, padded token
sequences and latent vectors.  It also exposes the box bounds of the latent
region covered by the training corpus, which TuRBO uses as its global search
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.query import Query
from repro.exceptions import ModelError
from repro.plans.encoding import PlanCodec
from repro.plans.jointree import JoinTree
from repro.vae.model import PlanVAE


@dataclass
class LatentSpace:
    """Encode/decode helpers plus the bounding box of the training embeddings."""

    model: PlanVAE
    codec: PlanCodec
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_corpus(cls, model: PlanVAE, codec: PlanCodec, sequences: np.ndarray,
                    margin: float = 0.25) -> "LatentSpace":
        """Build the latent space, deriving bounds from the corpus embeddings."""
        if len(sequences) == 0:
            raise ModelError("cannot derive latent bounds from an empty corpus")
        mu, _ = model.encode(sequences)
        span = mu.max(axis=0) - mu.min(axis=0)
        pad = margin * np.where(span > 0, span, 1.0)
        return cls(model=model, codec=codec, lower=mu.min(axis=0) - pad, upper=mu.max(axis=0) + pad)

    # ------------------------------------------------------------------ dimensions
    @property
    def dim(self) -> int:
        return self.model.config.latent_dim

    @property
    def max_length(self) -> int:
        return self.model.config.max_length

    # ------------------------------------------------------------------ conversions
    def embed_tokens(self, sequences: np.ndarray) -> np.ndarray:
        """Mean latent vectors of padded token sequences."""
        mu, _ = self.model.encode(sequences)
        return mu

    def embed_plan(self, plan: JoinTree, query: Query) -> np.ndarray:
        """Latent vector of a single plan."""
        tokens = np.asarray(
            [self.codec.encode_padded(plan, query, self.max_length)], dtype=np.int64
        )
        return self.embed_tokens(tokens)[0]

    def embed_plans(self, plans: list[JoinTree], query: Query) -> np.ndarray:
        tokens = np.asarray(
            [self.codec.encode_padded(plan, query, self.max_length) for plan in plans],
            dtype=np.int64,
        )
        return self.embed_tokens(tokens)

    def decode_vectors(self, vectors: np.ndarray, query: Query) -> list[JoinTree]:
        """Decode latent vectors (one, or one per row) to valid join trees for ``query``."""
        tokens = self.model.decode_tokens(np.atleast_2d(vectors))
        return [self.codec.decode([int(t) for t in row], query) for row in tokens]

    # ------------------------------------------------------------------ search domain
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower.copy(), self.upper.copy()

    def clip(self, vectors: np.ndarray) -> np.ndarray:
        """Clip candidate vectors into the search box."""
        return np.clip(vectors, self.lower, self.upper)

    def random_vectors(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random vectors inside the latent box."""
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))

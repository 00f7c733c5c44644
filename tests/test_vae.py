"""Tests for the plan VAE: corpus building, training, latent space behaviour."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.plans.encoding import PlanCodec, sequence_length
from repro.vae.dataset import PlanCorpus, build_plan_corpus, diversification_hint_sets
from repro.vae.latent import LatentSpace
from repro.vae.model import PlanVAE, VAEConfig
from repro.vae.training import sequence_accuracy, token_accuracy, train_vae


@pytest.fixture(scope="module")
def tiny_corpus(tiny_vocabulary):
    # Module-scoped corpus so VAE tests share one build.
    from repro.db.datagen import DataGenerator
    from repro.db.engine import Database
    from tests.conftest import _tiny_schema, _tiny_specs

    schema = _tiny_schema()
    database = Database(schema, DataGenerator(schema, _tiny_specs(), seed=7).generate())
    return build_plan_corpus(database, tiny_vocabulary, max_aliases=2, num_queries=40,
                             max_tables=4, seed=1)


@pytest.fixture(scope="module")
def trained_vae(tiny_corpus):
    model, report = train_vae(tiny_corpus, latent_dim=8, hidden_dim=96, steps=600, seed=0)
    return model, report


class TestCorpus:
    def test_corpus_shape(self, tiny_corpus, tiny_vocabulary):
        assert tiny_corpus.max_length == sequence_length(4)
        assert tiny_corpus.sequences.shape[1] == tiny_corpus.max_length
        assert tiny_corpus.num_sequences > 10
        assert tiny_corpus.sequences.max() < tiny_vocabulary.size

    def test_corpus_deduplicated(self, tiny_corpus):
        rows = {tuple(row) for row in tiny_corpus.sequences.tolist()}
        assert len(rows) == tiny_corpus.num_sequences

    def test_split_deterministic(self, tiny_corpus):
        train_a, test_a = tiny_corpus.split(seed=1)
        train_b, test_b = tiny_corpus.split(seed=1)
        assert np.array_equal(train_a, train_b) and np.array_equal(test_a, test_b)
        assert len(train_a) + len(test_a) == tiny_corpus.num_sequences

    def test_diversification_hint_sets(self):
        hints = diversification_hint_sets()
        assert len(hints) == 5
        assert len({h.name for h in hints}) == 5


@pytest.mark.slow
class TestPlanVAE:
    def test_encode_decode_shapes(self, tiny_corpus):
        config = VAEConfig(vocab_size=tiny_corpus.vocabulary.size, max_length=tiny_corpus.max_length,
                           latent_dim=6)
        model = PlanVAE(config)
        mu, logvar = model.encode(tiny_corpus.sequences[:5])
        assert mu.shape == (5, 6) and logvar.shape == (5, 6)
        logits = model.decode_logits(mu)
        assert logits.shape == (5, tiny_corpus.max_length, tiny_corpus.vocabulary.size)
        tokens = model.decode_tokens(mu)
        assert tokens.shape == (5, tiny_corpus.max_length)

    def test_wrong_length_rejected(self, tiny_corpus):
        config = VAEConfig(vocab_size=tiny_corpus.vocabulary.size, max_length=tiny_corpus.max_length)
        model = PlanVAE(config)
        with pytest.raises(ModelError):
            model.encode(np.zeros((2, tiny_corpus.max_length + 1), dtype=np.int64))

    def test_out_of_range_token_rejected(self, tiny_corpus):
        config = VAEConfig(vocab_size=tiny_corpus.vocabulary.size, max_length=tiny_corpus.max_length)
        model = PlanVAE(config)
        bad = np.full((1, tiny_corpus.max_length), tiny_corpus.vocabulary.size + 5)
        with pytest.raises(ModelError):
            model.encode(bad)

    def test_training_reduces_loss(self, trained_vae):
        _, report = trained_vae
        early = np.mean(report.losses[:20])
        late = np.mean(report.losses[-20:])
        assert late < early

    def test_reconstruction_beats_chance(self, trained_vae, tiny_corpus):
        model, report = trained_vae
        chance = 1.0 / tiny_corpus.vocabulary.size
        assert report.token_accuracy > 3 * chance
        assert 0.0 <= report.reconstruction_accuracy <= 1.0

    def test_accuracy_helpers_consistent(self, trained_vae, tiny_corpus):
        model, _ = trained_vae
        rows = tiny_corpus.sequences[:20]
        assert sequence_accuracy(model, rows) <= token_accuracy(model, rows) + 1e-9

    def test_weights_round_trip(self, trained_vae, tiny_corpus):
        model, _ = trained_vae
        weights = model.get_weights()
        clone = PlanVAE(model.config, seed=99)
        clone.set_weights(weights)
        rows = tiny_corpus.sequences[:4]
        assert np.array_equal(clone.reconstruct(rows), model.reconstruct(rows))

    def test_set_weights_shape_mismatch(self, trained_vae):
        model, _ = trained_vae
        weights = model.get_weights()
        weights[0] = weights[0][:, :1]
        clone = PlanVAE(model.config)
        with pytest.raises(ModelError):
            clone.set_weights(weights)

    def test_sampled_decoding_with_temperature(self, trained_vae, tiny_corpus):
        model, _ = trained_vae
        mu, _ = model.encode(tiny_corpus.sequences[:3])
        sampled = model.decode_tokens(mu, rng=np.random.default_rng(0), temperature=1.0)
        assert sampled.shape == (3, tiny_corpus.max_length)
        assert sampled.max() < tiny_corpus.vocabulary.size


class TestLatentSpace:
    @pytest.fixture(scope="class")
    def latent(self, trained_vae, tiny_corpus, tiny_codec):
        model, _ = trained_vae
        return LatentSpace.from_corpus(model, tiny_codec, tiny_corpus.sequences)

    def test_bounds_cover_corpus(self, latent, trained_vae, tiny_corpus):
        model, _ = trained_vae
        mu, _ = model.encode(tiny_corpus.sequences)
        lower, upper = latent.bounds()
        assert (mu >= lower - 1e-9).all() and (mu <= upper + 1e-9).all()
        assert (upper > lower).all()

    def test_embed_and_decode_plan(self, latent, tiny_database, tiny_query):
        plan = tiny_database.plan(tiny_query)
        vector = latent.embed_plan(plan, tiny_query)
        assert vector.shape == (latent.dim,)
        (decoded,) = latent.decode_vectors(vector, tiny_query)
        decoded.validate_for_query(tiny_query)

    def test_decode_random_vectors_always_valid(self, latent, tiny_query, rng):
        vectors = latent.random_vectors(10, rng)
        for plan in latent.decode_vectors(vectors, tiny_query):
            plan.validate_for_query(tiny_query)

    def test_clip(self, latent):
        lower, upper = latent.bounds()
        far = upper + 100.0
        clipped = latent.clip(far[None, :])
        assert (clipped <= upper + 1e-12).all()

    def test_empty_corpus_rejected(self, trained_vae, tiny_codec):
        model, _ = trained_vae
        with pytest.raises(ModelError):
            LatentSpace.from_corpus(model, tiny_codec, np.zeros((0, model.config.max_length)))

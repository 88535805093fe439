"""Simulated extractors draw their weights on first use, once, bit-identically.

An extractor's projection, distractor basis and clip-noise seed come from one
``default_rng((seed, crc32(name) & 0xFFFF))`` stream.  Building an extractor
draws nothing; whichever weight or extraction path is touched first draws all
three, in the stream's order, exactly once — also when several threads start
extracting through one fresh extractor together.  A session draws its
candidates' weights when it is built and no other extractor's.
"""

from __future__ import annotations

import threading
import time
import zlib

import numpy as np
import pytest

from repro.config import VocalExploreConfig
from repro.core.api import VOCALExplore
from repro.experiments.evaluation import ModelEvaluator
from repro.features import pretrained
from repro.features.pretrained import (
    DEFAULT_EXTRACTOR_NAMES,
    PRETRAINED_SPECS,
    ConcatExtractor,
    build_default_registry,
    build_extractor,
)
from repro.types import ClipSpec
from repro.video.activity import ActivitySegment, ActivityTrack
from repro.video.corpus import VideoCorpus
from repro.video.decoder import Decoder
from repro.video.streams import MIN_VECTORIZED_BATCH

LATENT_DIM = 32
SEED = 9


def _eager_weights(name: str, latent_dim: int = LATENT_DIM, seed: int = SEED):
    """The weights as the extractor constructor used to draw them."""
    rng = np.random.default_rng((seed, zlib.crc32(name.encode()) & 0xFFFF))
    dim = PRETRAINED_SPECS[name].dim
    projection = rng.standard_normal((latent_dim, dim)) / np.sqrt(latent_dim)
    basis = rng.standard_normal((latent_dim, dim)) / np.sqrt(latent_dim)
    return projection, basis, int(rng.integers(0, 2**31 - 1))


@pytest.fixture(scope="module")
def corpus():
    corpus = VideoCorpus(["a", "b", "c"], latent_dim=LATENT_DIM, seed=4)
    corpus.add_videos(
        ActivityTrack(10.0, [ActivitySegment(0.0, 10.0, "abc"[i % 3])]) for i in range(12)
    )
    return corpus


@pytest.fixture(scope="module")
def decoder(corpus):
    return Decoder(corpus)


@pytest.fixture
def draws(monkeypatch):
    """Names of the extractors whose weights are drawn during the test."""
    drawn: list[str] = []
    draw = pretrained._draw_weights

    def counting_draw(seed, spec, latent_dim):
        drawn.append(spec.name)
        return draw(seed, spec, latent_dim)

    monkeypatch.setattr(pretrained, "_draw_weights", counting_draw)
    return drawn


def _clips(count: int) -> list[ClipSpec]:
    return [ClipSpec(i % 12, float(i % 7), float(i % 7) + 1.0) for i in range(count)]


FIRST_TOUCHES = {
    "projection": lambda extractor, decoder: extractor._projection,
    "distractor_basis": lambda extractor, decoder: extractor._distractor_basis,
    "noise_seed": lambda extractor, decoder: extractor._noise_seed,
    "load_weights": lambda extractor, decoder: extractor.load_weights(),
    "extract": lambda extractor, decoder: extractor.extract(decoder.decode(_clips(1)[0])),
    "extract_batch": lambda extractor, decoder: extractor.extract_batch(
        decoder.decode_batch(_clips(MIN_VECTORIZED_BATCH))
    ),
    "concat": lambda extractor, decoder: ConcatExtractor([extractor]).extract_batch(
        decoder.decode_batch(_clips(MIN_VECTORIZED_BATCH))
    ),
}


@pytest.mark.parametrize("first_touch", sorted(FIRST_TOUCHES))
@pytest.mark.parametrize("name", DEFAULT_EXTRACTOR_NAMES)
def test_weights_equal_the_eager_draw_whatever_is_touched_first(
    name, first_touch, decoder, draws
):
    extractor = build_extractor(name, LATENT_DIM, 0.4, seed=SEED)
    assert draws == []
    FIRST_TOUCHES[first_touch](extractor, decoder)
    assert draws == [name]
    projection, basis, noise_seed = _eager_weights(name)
    assert np.array_equal(extractor._projection, projection)
    assert np.array_equal(extractor._distractor_basis, basis)
    assert extractor._noise_seed == noise_seed
    extractor.load_weights()
    extractor.extract(decoder.decode(_clips(1)[0]))
    assert draws == [name]


def test_building_a_registry_draws_nothing(draws):
    registry = build_default_registry(LATENT_DIM, {"r3d": 0.4}, seed=SEED, include_concat=True)
    assert len(registry) == len(DEFAULT_EXTRACTOR_NAMES) + 1
    assert draws == []
    registry.get("concat").load_weights()
    assert sorted(draws) == sorted(DEFAULT_EXTRACTOR_NAMES)


def test_a_weight_assigned_before_the_draw_is_kept(decoder):
    extractor = build_extractor("r3d", LATENT_DIM, 0.5, seed=SEED)
    zeros = np.zeros((LATENT_DIM, extractor.dim))
    extractor._projection = zeros
    extractor.load_weights()
    assert extractor._projection is zeros
    projection, basis, noise_seed = _eager_weights("r3d")
    assert np.array_equal(extractor._distractor_basis, basis)
    assert extractor._noise_seed == noise_seed


def test_eight_threads_on_a_fresh_extractor_draw_once(decoder, draws, monkeypatch):
    clips = _clips(2 * MIN_VECTORIZED_BATCH)
    expected = build_extractor("mvit", LATENT_DIM, 0.4, seed=SEED).extract_batch(
        decoder.decode_batch(clips)
    )
    assert draws == ["mvit"]
    del draws[:]
    # Hold the first draw open for a moment, so the other threads reach the
    # weights while it is still in progress.
    draw = pretrained._draw_weights

    def slow_draw(seed, spec, latent_dim):
        time.sleep(0.05)
        return draw(seed, spec, latent_dim)

    monkeypatch.setattr(pretrained, "_draw_weights", slow_draw)
    extractor = build_extractor("mvit", LATENT_DIM, 0.4, seed=SEED)
    decoded = decoder.decode_batch(clips)
    start = threading.Barrier(8)
    results: list[np.ndarray] = [None] * 8

    def work(i: int) -> None:
        start.wait()
        results[i] = extractor.extract_batch(decoded)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert draws == ["mvit"]
    for rows in results:
        assert np.array_equal(rows, expected)


def test_a_session_draws_exactly_its_candidates(tiny_dataset, draws):
    vocal = VOCALExplore.for_corpus(
        tiny_dataset.train_corpus,
        vocabulary=tiny_dataset.class_names,
        feature_qualities=tiny_dataset.feature_qualities,
        config=VocalExploreConfig(seed=1),
        candidate_features=["mvit", "clip"],
    )
    assert sorted(draws) == ["clip", "mvit"]
    # A non-candidate draws once a caller names it.
    hits = vocal.search((0, 0.0, 1.0), k=3, feature_name="r3d")
    assert len(hits) == 3
    assert sorted(draws) == ["clip", "mvit", "r3d"]
    vocal.close()


def test_a_default_session_draws_every_registered_extractor(tiny_dataset, draws):
    VOCALExplore.for_dataset(tiny_dataset).close()
    assert sorted(draws) == sorted(DEFAULT_EXTRACTOR_NAMES)


def test_model_evaluator_draws_only_what_it_scores(tiny_dataset, draws):
    evaluator = ModelEvaluator(tiny_dataset, seed=1)
    assert draws == []
    evaluator.eval_features("clip")
    assert draws == ["clip"]

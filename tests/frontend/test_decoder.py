"""Tests for the Viterbi phone-loop decoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.phoneset import PhoneSet
from repro.frontend.am.gmm import DiagonalGMM
from repro.frontend.am.hmm import GMMEmission, PhoneHMMSet
from repro.frontend.decoder import (
    DecoderConfig,
    ViterbiDecoder,
    estimate_phone_bigram,
)
from tests.frontend import decode_oracle

PS3 = PhoneSet("t3", ("a", "b", "c"))


def separated_decoder(
    states_per_phone=2, self_loop=0.5, **cfg_kwargs
) -> tuple[ViterbiDecoder, np.ndarray]:
    """Three phones at well-separated means in 2-D; returns (decoder, means)."""
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    gmms = []
    for p in range(3):
        for _ in range(states_per_phone):
            gmms.append(
                DiagonalGMM.from_parameters(
                    means=means[p : p + 1],
                    variances=np.ones((1, 2)),
                    weights=np.array([1.0]),
                )
            )
    hmms = PhoneHMMSet(
        3, states_per_phone, GMMEmission(gmms), self_loop=self_loop
    )
    return ViterbiDecoder(hmms, PS3, DecoderConfig(**cfg_kwargs)), means


def render(means, phone_seq, frames_per_phone, rng, noise=0.3):
    obs = []
    for p in phone_seq:
        obs.append(
            means[p] + rng.normal(0, noise, size=(frames_per_phone, 2))
        )
    return np.vstack(obs)


class TestEstimatePhoneBigram:
    def test_row_stochastic(self):
        lb = estimate_phone_bigram([np.array([0, 1, 2, 0])], 3)
        np.testing.assert_allclose(np.exp(lb).sum(axis=1), 1.0, atol=1e-12)

    def test_counts_dominate(self):
        seqs = [np.array([0, 1] * 50)]
        lb = estimate_phone_bigram(seqs, 3, smoothing=0.1)
        assert lb[0, 1] > lb[0, 0]
        assert lb[0, 1] > lb[0, 2]

    def test_empty_sequences_uniform(self):
        lb = estimate_phone_bigram([], 4)
        np.testing.assert_allclose(lb, np.log(0.25), atol=1e-12)


class TestViterbi:
    def test_recovers_clean_sequence(self, rng):
        decoder, means = separated_decoder()
        truth = [0, 1, 2, 1, 0]
        frames = render(means, truth, 5, rng)
        sausage = decoder.decode(frames)
        np.testing.assert_array_equal(sausage.best_phones(), truth)

    def test_repeated_phone_collapsed_sequence_correct(self, rng):
        # Two adjacent instances of the same phone are acoustically
        # indistinguishable from one long instance; the decoder may emit
        # either.  The collapsed phone sequence must still be right.
        decoder, means = separated_decoder()
        frames = render(means, [1, 1, 2], 6, rng, noise=0.2)
        decoded = decoder.decode(frames).best_phones()
        collapsed = decoded[np.insert(np.diff(decoded) != 0, 0, True)]
        np.testing.assert_array_equal(collapsed, [1, 2])

    def test_empty_input(self):
        decoder, _ = separated_decoder()
        assert len(decoder.decode(np.zeros((0, 2)))) == 0

    def test_path_and_posterior_shapes(self, rng):
        decoder, means = separated_decoder()
        frames = render(means, [0, 2], 4, rng)
        loglik = decoder.config.acoustic_scale * (
            decoder.hmms.emission.frame_log_likelihood(frames)
        )
        lengths = np.array([loglik.shape[0]])
        paths, crosseds = decoder.viterbi_batch(loglik[None], lengths)
        path, crossed = paths[0], crosseds[0]
        assert path.shape == (8,)
        assert crossed[0]
        post = decoder.state_posteriors_batch(loglik[None], lengths)[0]
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_mode_also_decodes(self, rng):
        decoder, means = separated_decoder(posterior_mode="softmax")
        truth = [2, 0, 1]
        frames = render(means, truth, 5, rng)
        np.testing.assert_array_equal(
            decoder.decode(frames).best_phones(), truth
        )

    def test_slot_probs_valid(self, rng):
        decoder, means = separated_decoder(top_k=3)
        frames = render(means, [0, 1], 5, rng, noise=1.5)
        for slot in decoder.decode(frames).slots:
            assert slot.probs.sum() == pytest.approx(1.0)
            assert slot.phones.size <= 3

    def test_single_state_phones(self, rng):
        decoder, means = separated_decoder(states_per_phone=1)
        truth = [0, 1, 2]
        frames = render(means, truth, 4, rng)
        np.testing.assert_array_equal(
            decoder.decode(frames).best_phones(), truth
        )

    def test_fb_posteriors_sum_to_one(self, rng):
        decoder, means = separated_decoder()
        frames = render(means, [0, 1, 2], 3, rng)
        loglik = decoder.hmms.emission.frame_log_likelihood(frames)
        gamma = decoder.state_posteriors_batch(
            loglik[None], np.array([loglik.shape[0]])
        )[0]
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-8)

    def test_mismatched_width_rejected(self, rng):
        decoder, _ = separated_decoder()
        with pytest.raises(ValueError):
            decoder.viterbi_batch(np.zeros((1, 5, 99)), np.array([5]))

    def test_phone_set_size_checked(self, rng):
        decoder, _ = separated_decoder()
        with pytest.raises(ValueError):
            ViterbiDecoder(decoder.hmms, PhoneSet("bad", ("x",)))

    def test_noisier_frames_give_flatter_slots(self, rng):
        decoder, means = separated_decoder(top_k=3)
        clean = render(means, [0, 1, 2], 5, rng, noise=0.1)
        noisy = render(means, [0, 1, 2], 5, rng, noise=3.0)

        def mean_top_prob(sausage):
            return np.mean([slot.probs.max() for slot in sausage.slots])

        assert mean_top_prob(decoder.decode(noisy)) < mean_top_prob(
            decoder.decode(clean)
        )


class TestDecoderKnobs:
    def test_acoustic_scale_flattens_posteriors(self, rng):
        sharp, means = separated_decoder(acoustic_scale=1.0, top_k=3)
        flat, _ = separated_decoder(acoustic_scale=0.05, top_k=3)
        frames = render(means, [0, 1, 2], 5, rng, noise=1.0)

        def mean_top(decoder):
            return np.mean(
                [s.probs.max() for s in decoder.decode(frames).slots]
            )

        assert mean_top(flat) < mean_top(sharp)

    def test_insertion_penalty_reduces_segments(self, rng):
        from repro.frontend.am.hmm import PhoneHMMSet
        from repro.frontend.decoder import DecoderConfig, ViterbiDecoder

        base, means = separated_decoder(states_per_phone=1, self_loop=0.5)
        # Rebuild with a strong insertion penalty on cross-phone arcs.
        penalised_hmms = PhoneHMMSet(
            3,
            1,
            base.hmms.emission,
            self_loop=0.5,
            insertion_log_penalty=-8.0,
        )
        penalised = ViterbiDecoder(penalised_hmms, PS3, DecoderConfig())
        frames = render(means, [0, 1, 2, 1, 0], 3, rng, noise=1.2)
        n_base = len(base.decode(frames))
        n_penalised = len(penalised.decode(frames))
        assert n_penalised <= n_base


def _assert_sausages_bitwise_equal(batch, loop):
    assert len(batch) == len(loop)
    for sb, sl in zip(batch, loop):
        assert len(sb) == len(sl)
        for a, b in zip(sb.slots, sl.slots):
            np.testing.assert_array_equal(a.phones, b.phones)
            np.testing.assert_array_equal(a.probs, b.probs)


def _render_batch(means, rng):
    """Utterances exercising the padded-lattice edges: a 1-frame
    utterance, mixed lengths, and two rows tied at the maximum length."""
    return [
        render(means, [0], 1, rng)[:1],          # single frame
        render(means, [1, 2], 3, rng),           # short
        render(means, [0, 1, 2, 1], 5, rng),     # max length …
        render(means, [2, 0, 1, 0], 5, rng),     # … tied with this one
        render(means, [1], 2, rng),
    ]


def _oracle_loop(decoder, frames_list):
    """The one-utterance scalar DP over every utterance (test oracle)."""
    return [decode_oracle.decode(decoder, f) for f in frames_list]


class TestBatchParity:
    """decode_batch must reproduce the scalar one-utterance DP oracle:
    bitwise in float64, within the documented tolerance in float32."""

    @pytest.mark.parametrize("mode", ["fb", "softmax"])
    def test_float64_bitwise(self, rng, mode):
        decoder, means = separated_decoder(posterior_mode=mode, top_k=3)
        frames_list = _render_batch(means, rng)
        batch = decoder.decode_batch(frames_list)
        _assert_sausages_bitwise_equal(
            batch, _oracle_loop(decoder, frames_list)
        )

    def test_float64_bitwise_with_beam(self, rng):
        decoder, means = separated_decoder(beam=40.0)
        frames_list = _render_batch(means, rng)
        _assert_sausages_bitwise_equal(
            decoder.decode_batch(frames_list),
            _oracle_loop(decoder, frames_list),
        )

    def test_float64_bitwise_with_tight_beam(self, rng):
        # A beam that actually prunes: the batched row-wise frame-best
        # must prune exactly the states the scalar DP prunes.
        decoder, means = separated_decoder(beam=2.0)
        frames_list = _render_batch(means, rng)
        _assert_sausages_bitwise_equal(
            decoder.decode_batch(frames_list),
            _oracle_loop(decoder, frames_list),
        )

    def test_single_frame_only_batch(self, rng):
        # Every row is one frame: T_max == 1, no padding headroom at all.
        decoder, means = separated_decoder()
        frames_list = [render(means, [p], 1, rng)[:1] for p in (0, 1, 2)]
        _assert_sausages_bitwise_equal(
            decoder.decode_batch(frames_list),
            _oracle_loop(decoder, frames_list),
        )

    def test_paths_and_posteriors_match_oracle(self, rng):
        # The DP outputs themselves, not only the sausages built on them.
        decoder, means = separated_decoder(beam=40.0)
        frames_list = _render_batch(means, rng)
        logliks = [decoder._scaled_loglik(f) for f in frames_list]
        lengths = np.array([ll.shape[0] for ll in logliks])
        lattice = np.zeros((len(logliks), lengths.max(), decoder.hmms.n_states))
        for i, ll in enumerate(logliks):
            lattice[i, : ll.shape[0]] = ll
        paths, crosseds = decoder.viterbi_batch(lattice, lengths)
        posteriors = decoder.state_posteriors_batch(lattice, lengths)
        for i, ll in enumerate(logliks):
            path, crossed = decode_oracle.viterbi(decoder, ll)
            np.testing.assert_array_equal(paths[i], path)
            np.testing.assert_array_equal(crosseds[i], crossed)
            want = decode_oracle.state_posteriors(decoder, ll)
            assert posteriors[i, : ll.shape[0]].tobytes() == want.tobytes()

    def test_empty_utterance_in_batch(self, rng):
        decoder, means = separated_decoder()
        frames_list = [
            render(means, [0, 1], 3, rng),
            np.zeros((0, 2)),
            render(means, [2], 2, rng),
        ]
        batch = decoder.decode_batch(frames_list)
        assert len(batch[1]) == 0
        _assert_sausages_bitwise_equal(
            batch, _oracle_loop(decoder, frames_list)
        )

    def test_float32_batch_matches_loop_within_tolerance(self, rng):
        decoder, means = separated_decoder(dtype="float32")
        frames_list = _render_batch(means, rng)
        batch = decoder.decode_batch(frames_list)
        loop = _oracle_loop(decoder, frames_list)
        assert len(batch) == len(loop)
        for sb, sl in zip(batch, loop):
            assert len(sb) == len(sl)
            for a, b in zip(sb.slots, sl.slots):
                np.testing.assert_array_equal(a.phones, b.phones)
                np.testing.assert_allclose(a.probs, b.probs, atol=1e-5)

    def test_float32_tracks_float64_within_documented_tolerance(self, rng):
        # The tolerance policy the tables comparator encodes: float32
        # decode posteriors may drift from float64 by ~1e-5, no more.
        from repro.core.reporting import tables_match

        d32, means = separated_decoder(dtype="float32")
        d64, _ = separated_decoder(dtype="float64")
        frames_list = _render_batch(means, rng)
        out32 = d32.decode_batch(frames_list)
        out64 = d64.decode_batch(frames_list)
        probs32 = [[s.probs for s in sg.slots] for sg in out32]
        probs64 = [[s.probs for s in sg.slots] for sg in out64]
        phones32 = [[s.phones for s in sg.slots] for sg in out32]
        phones64 = [[s.phones for s in sg.slots] for sg in out64]
        assert tables_match(phones32, phones64)
        assert not tables_match(probs32, probs64)  # not bitwise …
        assert tables_match(probs32, probs64, atol=1e-4)  # … but close

    def test_float32_stage_params_mark_phi_keys(self):
        decoder, _ = separated_decoder(dtype="float32", beam=25.0)
        params = decoder.config.stage_params()
        assert params == {"decode_dtype": "float32", "decode_beam": 25.0}
        default, _ = separated_decoder()
        assert default.config.stage_params() == {}

"""Viterbi phone-loop decoding to posterior sausages.

This is the reproduction's HVite: frames go in, a phone confusion network
comes out.  The decoder runs over the composite state space of a
:class:`~repro.frontend.am.hmm.PhoneHMMSet` (phones × left-to-right
states) with three structural transition families — self-loop, within-phone
advance, and cross-phone arcs scored by a phone-bigram LM — all evaluated
as whole-array numpy operations per frame over a zero-padded batch of
utterances, so the per-frame cost is O(B·(S + P²)) and the per-frame
Python overhead is paid once per batch.  A single utterance is a batch of
one.

The emitted :class:`~repro.frontend.lattice.Sausage` has one slot per
Viterbi phone segment; slot posteriors are state-posterior mass (full
structured forward-backward, or a cheaper per-frame softmax) aggregated
over the segment and truncated to the top-k alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.phoneset import PhoneSet
from repro.frontend.am.hmm import PhoneHMMSet
from repro.frontend.lattice import Sausage, SausageSlot
from repro.obs.metrics import default_registry
from repro.utils.validation import check_in, check_positive

__all__ = ["ViterbiDecoder", "DecoderConfig", "estimate_phone_bigram"]

# Always-on lightweight accounting of the hottest stage (paper Table 5
# puts decoding ~two orders of magnitude above everything else).  Counts
# recorded in process-pool workers are snapshotted per chunk and merged
# back into the parent registry by pmap, so the process view stays
# complete however the fan-out is sized.
_DECODES = default_registry().counter("frontend.decoder.decodes")
_DECODE_FRAMES = default_registry().histogram(
    "frontend.decoder.frames", maxlen=512
)


def estimate_phone_bigram(
    sequences: list[np.ndarray], n_phones: int, *, smoothing: float = 0.5
) -> np.ndarray:
    """Additively-smoothed log phone-bigram matrix from label sequences."""
    check_positive("n_phones", n_phones)
    counts = np.full((n_phones, n_phones), smoothing, dtype=np.float64)
    for seq in sequences:
        seq = np.asarray(seq, dtype=np.int64)
        if seq.size >= 2:
            np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
    return np.log(counts / counts.sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class DecoderConfig:
    """Decoding knobs.

    Attributes
    ----------
    acoustic_scale:
        Temperature on emission log-likelihoods (classic HTK-style acoustic
        scaling; keeps lattice posteriors from saturating).
    top_k:
        Maximum alternatives kept per sausage slot.
    posterior_mode:
        ``"fb"`` uses the structured forward-backward state posteriors;
        ``"softmax"`` uses per-frame emission softmax (cheaper, slightly
        less sharp).
    dtype:
        DP arithmetic width.  ``"float32"`` halves lattice memory and
        speeds the DP up, at a documented tolerance cost (tables compare
        within ``atol`` instead of bitwise) — it therefore enters stage
        keys via :meth:`stage_params`.
    beam:
        Optional Viterbi beam half-width (log domain).  States whose
        score falls more than ``beam`` below the frame-best are pruned to
        ``-inf``.  ``None`` (default) disables pruning; any finite beam
        changes numerics and enters stage keys.
    """

    acoustic_scale: float = 0.3
    top_k: int = 5
    posterior_mode: str = "fb"
    dtype: str = "float64"
    beam: float | None = None

    def __post_init__(self) -> None:
        check_positive("acoustic_scale", self.acoustic_scale)
        check_positive("top_k", self.top_k)
        check_in("posterior_mode", self.posterior_mode, ["fb", "softmax"])
        check_in("dtype", self.dtype, ["float64", "float32"])
        if self.beam is not None:
            check_positive("beam", self.beam)

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def stage_params(self) -> dict[str, object]:
        """Extra stage-key parameters for memoised decode artifacts.

        Only knobs that change the *numbers* are included:
        ``dtype="float32"`` and finite beams change results and must key
        separate artifacts; the float64 exact-DP default adds nothing.
        """
        params: dict[str, object] = {}
        if self.dtype != "float64":
            params["decode_dtype"] = self.dtype
        if self.beam is not None:
            params["decode_beam"] = float(self.beam)
        return params


class ViterbiDecoder:
    """Phone-loop decoder producing posterior sausages."""

    def __init__(
        self,
        hmms: PhoneHMMSet,
        phone_set: PhoneSet,
        config: DecoderConfig | None = None,
    ) -> None:
        if len(phone_set) != hmms.n_phones:
            raise ValueError("phone set size must match the HMM set")
        self.hmms = hmms
        self.phone_set = phone_set
        self.config = config or DecoderConfig()

    # ------------------------------------------------------------------
    # Viterbi
    # ------------------------------------------------------------------
    def viterbi_batch(
        self, log_likelihood: np.ndarray, lengths: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Best composite-state paths over a padded lattice tensor.

        One vectorized DP advances *all* utterances per frame step; rows
        whose utterance already ended are frozen by an active mask, so
        each row's final ``delta`` is the one-utterance DP's at that
        utterance's last frame.  All reductions run along batch-trailing
        axes, which numpy evaluates per row exactly as it would for a
        lone utterance — in float64 a row's path does not depend on the
        rest of the batch.

        Parameters
        ----------
        log_likelihood:
            Scaled emission scores, shape ``(B, T_max, n_states)``,
            zero-padded past each utterance's length.
        lengths:
            True frame counts per utterance, shape ``(B,)``.

        Returns
        -------
        paths, crosseds:
            Per-utterance best state ids per frame and cross-arc flags
            (``True`` where the path entered a *new phone instance* at
            that frame, used to split repeated phones into separate
            segments), each trimmed to the utterance's own length.
        """
        hmms = self.hmms
        b, t_max, n_states = log_likelihood.shape
        if n_states != hmms.n_states:
            raise ValueError("log_likelihood width must equal n_states")
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (b,):
            raise ValueError("lengths must have one entry per batch row")
        if t_max == 0 or b == 0:
            return (
                [np.empty(0, np.int64)] * b,
                [np.empty(0, bool)] * b,
            )
        dt = log_likelihood.dtype
        beam = self.config.beam
        log_self, log_leave, cross = hmms.transition_blocks()
        log_self = np.asarray(log_self, dtype=dt)
        log_leave = np.asarray(log_leave, dtype=dt)
        cross = np.asarray(cross, dtype=dt)
        entries = hmms.entry_states()
        exits = hmms.exit_states()
        s = hmms.states_per_phone
        non_entry = np.setdiff1d(np.arange(n_states), entries)
        idx = np.arange(n_states, dtype=np.int32)

        delta = hmms.initial_log_probs().astype(dt)[None, :] + log_likelihood[:, 0]
        bp = np.zeros((b, t_max, n_states), dtype=np.int32)
        was_cross = np.zeros((b, t_max, n_states), dtype=bool)
        for t in range(1, t_max):
            active = lengths > t  # (B,)
            if not active.any():
                break
            stay = delta + log_self
            adv = np.full((b, n_states), -np.inf, dtype=dt)
            if s > 1:
                adv[:, non_entry] = delta[:, non_entry - 1] + log_leave
            cross_scores = delta[:, exits, None] + cross[None]  # (B, P, P)
            from_phone = np.argmax(cross_scores, axis=1)  # (B, P)
            cross_best = np.take_along_axis(
                cross_scores, from_phone[:, None, :], axis=1
            )[:, 0, :]
            new_delta = stay
            new_bp = np.broadcast_to(idx, (b, n_states))
            adv_better = adv > new_delta
            new_delta = np.where(adv_better, adv, new_delta)
            new_bp = np.where(adv_better, idx - np.int32(1), new_bp)
            cross_better = np.full((b, n_states), -np.inf, dtype=dt)
            cross_better[:, entries] = cross_best
            take_cross = cross_better > new_delta
            new_delta = np.where(take_cross, cross_better, new_delta)
            cross_pred = np.zeros((b, n_states), dtype=np.int32)
            cross_pred[:, entries] = exits[from_phone].astype(np.int32)
            new_bp = np.where(take_cross, cross_pred, new_bp)
            cand = new_delta + log_likelihood[:, t]
            if beam is not None:
                cand = np.where(
                    cand >= cand.max(axis=1, keepdims=True) - beam, cand, -np.inf
                )
            # Frozen rows keep the delta of their own final frame.
            delta = np.where(active[:, None], cand, delta)
            bp[:, t] = new_bp
            was_cross[:, t] = take_cross

        paths: list[np.ndarray] = []
        crosseds: list[np.ndarray] = []
        for i in range(b):
            t_i = int(lengths[i])
            if t_i == 0:
                paths.append(np.empty(0, np.int64))
                crosseds.append(np.empty(0, bool))
                continue
            path = np.empty(t_i, dtype=np.int64)
            crossed = np.zeros(t_i, dtype=bool)
            path[-1] = int(np.argmax(delta[i]))
            for t in range(t_i - 1, 0, -1):
                crossed[t] = was_cross[i, t, path[t]]
                path[t - 1] = bp[i, t, path[t]]
            crossed[0] = True
            paths.append(path)
            crosseds.append(crossed)
        return paths, crosseds

    # ------------------------------------------------------------------
    # posteriors
    # ------------------------------------------------------------------
    def _structured_step_forward_batch(self, prev: np.ndarray) -> np.ndarray:
        """One forward log-sum step through the structured transitions.

        ``prev`` is (B, S).  The cross-phone logsumexp reduces along
        axis 1 of the (B, P, P) score tensor, which numpy computes per
        batch row exactly as the one-utterance axis-0 reduction — bitwise
        equal in float64.
        """
        hmms = self.hmms
        dt = prev.dtype
        log_self, log_leave, cross = hmms.transition_blocks()
        log_self = np.asarray(log_self, dtype=dt)
        log_leave = np.asarray(log_leave, dtype=dt)
        cross = np.asarray(cross, dtype=dt)
        entries, exits = hmms.entry_states(), hmms.exit_states()
        b, n_states = prev.shape
        stay = prev + log_self
        adv = np.full((b, n_states), -np.inf, dtype=dt)
        if hmms.states_per_phone > 1:
            non_entry = np.setdiff1d(np.arange(n_states), entries)
            adv[:, non_entry] = prev[:, non_entry - 1] + log_leave
        # ascontiguousarray: the broadcast puts the batch axis fastest in
        # memory, which flips numpy's last-axis reduction from pairwise
        # to strided-sequential summation — a different float sum than
        # the one-utterance step.  A C-layout copy restores bitwise parity.
        cross_scores = np.ascontiguousarray(
            prev[:, exits, None] + cross[None]
        )  # (B, P, P)
        m = cross_scores.max(axis=1)  # (B, P)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cross_in = m + np.log(
                np.exp(
                    cross_scores
                    - np.where(np.isfinite(m), m, 0.0)[:, None, :]
                ).sum(axis=1)
            )
        combined = np.logaddexp(stay, adv)
        full_cross = np.full((b, n_states), -np.inf, dtype=dt)
        full_cross[:, entries] = cross_in
        return np.logaddexp(combined, full_cross)

    def _structured_step_backward_batch(self, nxt: np.ndarray) -> np.ndarray:
        """One backward log-sum step; ``nxt`` is (B, S) with emissions."""
        hmms = self.hmms
        dt = nxt.dtype
        log_self, log_leave, cross = hmms.transition_blocks()
        log_self = np.asarray(log_self, dtype=dt)
        log_leave = np.asarray(log_leave, dtype=dt)
        cross = np.asarray(cross, dtype=dt)
        entries, exits = hmms.entry_states(), hmms.exit_states()
        b, n_states = nxt.shape
        stay = nxt + log_self
        adv = np.full((b, n_states), -np.inf, dtype=dt)
        if hmms.states_per_phone > 1:
            non_exit = np.setdiff1d(np.arange(n_states), exits)
            adv[:, non_exit] = nxt[:, non_exit + 1] + log_leave
        # See the forward step: force C layout so the axis-2 reduction
        # keeps the one-utterance pairwise summation order.
        cross_scores = np.ascontiguousarray(
            cross[None] + nxt[:, entries][:, None, :]
        )  # (B, P, P)
        m = cross_scores.max(axis=2)  # (B, P)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cross_out = m + np.log(
                np.exp(
                    cross_scores
                    - np.where(np.isfinite(m), m, 0.0)[:, :, None]
                ).sum(axis=2)
            )
        combined = np.logaddexp(stay, adv)
        full_cross = np.full((b, n_states), -np.inf, dtype=dt)
        full_cross[:, exits] = cross_out
        return np.logaddexp(combined, full_cross)

    def _forward_backward_batch(
        self, log_likelihood: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Structured forward-backward over a padded (B, T, S) tensor.

        Rows are padded with zeros past their length; padded frames carry
        junk posteriors that callers must not read (each utterance's
        consumer slices ``[:length]``).  The backward recursion re-anchors
        ``beta = 0`` at every row's own final frame, so valid frames are
        bitwise equal to the one-utterance recursion in float64.
        """
        b, t_max, n_states = log_likelihood.shape
        dt = log_likelihood.dtype
        scaled = log_likelihood
        alpha = np.empty((b, t_max, n_states), dtype=dt)
        alpha[:, 0] = self.hmms.initial_log_probs().astype(dt) + scaled[:, 0]
        for t in range(1, t_max):
            alpha[:, t] = (
                self._structured_step_forward_batch(alpha[:, t - 1]) + scaled[:, t]
            )
        beta = np.empty((b, t_max, n_states), dtype=dt)
        beta[:, -1] = 0.0
        last = (lengths - 1)[:, None]
        for t in range(t_max - 2, -1, -1):
            step = self._structured_step_backward_batch(
                beta[:, t + 1] + scaled[:, t + 1]
            )
            beta[:, t] = np.where(last == t, 0.0, step)
        log_gamma = alpha + beta
        with np.errstate(invalid="ignore"):
            log_gamma -= log_gamma.max(axis=2, keepdims=True)
            gamma = np.exp(log_gamma)
            gamma /= gamma.sum(axis=2, keepdims=True)
        return gamma

    def state_posteriors_batch(
        self, log_likelihood: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Per-frame state posteriors for a padded (B, T, S) tensor."""
        if self.config.posterior_mode == "softmax":
            scores = log_likelihood - log_likelihood.max(axis=2, keepdims=True)
            post = np.exp(scores)
            return post / post.sum(axis=2, keepdims=True)
        return self._forward_backward_batch(log_likelihood, lengths)

    # ------------------------------------------------------------------
    # end-to-end
    # ------------------------------------------------------------------
    def _scaled_loglik(self, frames: np.ndarray) -> np.ndarray:
        """Scaled emission scores in the configured DP dtype.

        Emissions are always evaluated in float64 (one code path, one
        GEMM blocking) and cast *after* scaling, so float32 runs differ
        from float64 only in DP arithmetic, not in emission order.
        """
        loglik = (
            self.config.acoustic_scale
            * self.hmms.emission.frame_log_likelihood(frames)
        )
        return loglik.astype(self.config.np_dtype, copy=False)

    def decode(self, frames: np.ndarray) -> Sausage:
        """Decode one utterance's feature frames (a batch of one)."""
        return self.decode_batch([frames])[0]

    def decode_batch(self, frames_list: list[np.ndarray]) -> list[Sausage]:
        """Decode a batch of utterances through one padded-lattice DP.

        Frames are padded into a ``(B, T_max, S)`` tensor and a single
        vectorized Viterbi (plus batched posteriors) runs over all rows
        at once — per-frame Python overhead is paid once per batch
        instead of once per utterance.  Emissions stay per-utterance
        (batching them would re-block the GEMM and perturb float sums),
        so in float64 each sausage is bitwise identical to decoding its
        utterance alone.
        """
        frames_list = [
            np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in frames_list
        ]
        if not frames_list:
            return []
        _DECODES.inc(len(frames_list))
        for f in frames_list:
            _DECODE_FRAMES.observe(float(f.shape[0]))
        logliks = [self._scaled_loglik(f) for f in frames_list]
        lengths = np.array([ll.shape[0] for ll in logliks], dtype=np.int64)
        b = len(logliks)
        t_max = int(lengths.max())
        n_states = self.hmms.n_states
        if t_max == 0:
            return [Sausage([], self.phone_set) for _ in range(b)]
        lattice = np.zeros((b, t_max, n_states), dtype=self.config.np_dtype)
        for i, ll in enumerate(logliks):
            lattice[i, : ll.shape[0]] = ll
        paths, crosseds = self.viterbi_batch(lattice, lengths)
        posteriors = self.state_posteriors_batch(lattice, lengths)
        s = self.hmms.states_per_phone
        phone_post = posteriors.reshape(b, t_max, self.hmms.n_phones, s).sum(
            axis=3
        )
        sausages: list[Sausage] = []
        for i in range(b):
            t_i = int(lengths[i])
            if t_i == 0:
                sausages.append(Sausage([], self.phone_set))
                continue
            phone_path = paths[i] // s
            slots = self._segment_slots(
                phone_path, crosseds[i], phone_post[i, :t_i]
            )
            sausages.append(Sausage(slots, self.phone_set))
        return sausages

    def _segment_slots(
        self,
        phone_path: np.ndarray,
        crossed: np.ndarray,
        phone_post: np.ndarray,
    ) -> list[SausageSlot]:
        """Split the frame-level path at phone-instance boundaries."""
        cfg = self.config
        # A segment starts where the phone changes or a cross arc fired.
        boundary = np.zeros(phone_path.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = (phone_path[1:] != phone_path[:-1]) | crossed[1:]
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], phone_path.size)
        slots = []
        for a, b in zip(starts, ends):
            seg_post = phone_post[a:b].mean(axis=0)
            top = np.argsort(seg_post)[::-1][: cfg.top_k]
            top = top[seg_post[top] > 0]
            winner = phone_path[a]
            if winner not in top:
                top = np.append(top[:-1] if top.size >= cfg.top_k else top, winner)
            probs = seg_post[top].astype(np.float64)
            total = probs.sum()
            if total > 0.0:
                probs = probs / total
            else:
                # All kept mass can be zero (a forced-in winner whose
                # posterior underflowed, e.g. under tight beams or
                # float32); fall back to uniform instead of 0/0 → NaN.
                probs = np.full(top.size, 1.0 / top.size)
            order = np.argsort(top)
            slots.append(SausageSlot(top[order], probs[order]))
        return slots

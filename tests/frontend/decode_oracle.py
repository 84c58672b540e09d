"""Per-utterance decode oracles for the batched decoders.

The scalar implementations the batched production paths replaced, kept
here as the references the parity tests compare against:

- the phone-loop :class:`~repro.frontend.decoder.ViterbiDecoder`'s
  one-utterance Viterbi and structured forward–backward (``decode``,
  ``viterbi``, ``state_posteriors``) — the batched DP must equal them
  bitwise in float64 and within ``1e-5`` in float32;
- the :class:`~repro.frontend.confusion.ConfusionChannelRecognizer`'s
  per-slot decode loop (:func:`confusion_decode_reference`, and
  :func:`confusion_decode_batch_reference` with ``decode_batch``'s
  signature), which ``decode_batch`` must reproduce bitwise from the
  same RNG streams.

Each function takes the production object as its first argument and is
otherwise the original method body.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.lattice import Sausage, SausageSlot
from repro.utils.rng import child_rng, ensure_rng

__all__ = [
    "confusion_decode_batch_reference",
    "confusion_decode_reference",
    "decode",
    "state_posteriors",
    "viterbi",
]


# ----------------------------------------------------------------------
# phone-loop Viterbi decoder
# ----------------------------------------------------------------------
def viterbi(decoder, log_likelihood: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best composite-state path and per-frame cross-arc flags.

    ``log_likelihood`` holds scaled emission scores, shape
    ``(T, n_states)``; returns the best state id per frame and a boolean
    per frame that is ``True`` where the path entered a new phone
    instance.
    """
    hmms = decoder.hmms
    t_total, n_states = log_likelihood.shape
    if n_states != hmms.n_states:
        raise ValueError("log_likelihood width must equal n_states")
    if t_total == 0:
        return np.empty(0, np.int64), np.empty(0, bool)
    dt = log_likelihood.dtype
    beam = decoder.config.beam
    log_self, log_leave, cross = hmms.transition_blocks()
    log_self = np.asarray(log_self, dtype=dt)
    log_leave = np.asarray(log_leave, dtype=dt)
    cross = np.asarray(cross, dtype=dt)
    entries = hmms.entry_states()
    exits = hmms.exit_states()
    s = hmms.states_per_phone
    non_entry = np.setdiff1d(np.arange(n_states), entries)

    delta = hmms.initial_log_probs().astype(dt) + log_likelihood[0]
    bp = np.zeros((t_total, n_states), dtype=np.int32)
    was_cross = np.zeros((t_total, n_states), dtype=bool)
    for t in range(1, t_total):
        stay = delta + log_self
        adv = np.full(n_states, -np.inf, dtype=dt)
        if s > 1:
            adv[non_entry] = delta[non_entry - 1] + log_leave
        # Cross-phone: from every exit state into every entry state.
        cross_scores = delta[exits][:, None] + cross  # (P, P)
        from_phone = np.argmax(cross_scores, axis=0)
        cross_best = cross_scores[from_phone, np.arange(hmms.n_phones)]
        new_delta = stay
        new_bp = np.arange(n_states, dtype=np.int32)
        adv_better = adv > new_delta
        new_delta = np.where(adv_better, adv, new_delta)
        new_bp = np.where(
            adv_better, np.arange(n_states, dtype=np.int32) - 1, new_bp
        )
        cross_flag = np.zeros(n_states, dtype=bool)
        cross_better = np.full(n_states, -np.inf, dtype=dt)
        cross_better[entries] = cross_best
        take_cross = cross_better > new_delta
        new_delta = np.where(take_cross, cross_better, new_delta)
        cross_pred = np.zeros(n_states, dtype=np.int32)
        cross_pred[entries] = exits[from_phone].astype(np.int32)
        new_bp = np.where(take_cross, cross_pred, new_bp)
        cross_flag |= take_cross
        delta = new_delta + log_likelihood[t]
        if beam is not None:
            delta = np.where(delta >= delta.max() - beam, delta, -np.inf)
        bp[t] = new_bp
        was_cross[t] = cross_flag

    path = np.empty(t_total, dtype=np.int64)
    crossed = np.zeros(t_total, dtype=bool)
    path[-1] = int(np.argmax(delta))
    for t in range(t_total - 1, 0, -1):
        crossed[t] = was_cross[t, path[t]]
        path[t - 1] = bp[t, path[t]]
    crossed[0] = True  # the first frame always opens a phone instance
    return path, crossed


def state_posteriors(decoder, log_likelihood: np.ndarray) -> np.ndarray:
    """Per-frame state posteriors, shape ``(T, n_states)``."""
    if decoder.config.posterior_mode == "softmax":
        scores = log_likelihood - log_likelihood.max(axis=1, keepdims=True)
        post = np.exp(scores)
        return post / post.sum(axis=1, keepdims=True)
    return _forward_backward(decoder, log_likelihood)


def _structured_step_forward(decoder, prev: np.ndarray) -> np.ndarray:
    """One forward log-sum step through the structured transitions."""
    hmms = decoder.hmms
    log_self, log_leave, cross = hmms.transition_blocks()
    entries, exits = hmms.entry_states(), hmms.exit_states()
    n_states = hmms.n_states
    stay = prev + log_self
    adv = np.full(n_states, -np.inf)
    if hmms.states_per_phone > 1:
        non_entry = np.setdiff1d(np.arange(n_states), entries)
        adv[non_entry] = prev[non_entry - 1] + log_leave
    cross_scores = prev[exits][:, None] + cross  # (P, P)
    m = cross_scores.max(axis=0)
    with np.errstate(over="ignore", divide="ignore"):
        cross_in = m + np.log(
            np.exp(cross_scores - np.where(np.isfinite(m), m, 0.0)).sum(axis=0)
        )
    combined = np.logaddexp(stay, adv)
    full_cross = np.full(n_states, -np.inf)
    full_cross[entries] = cross_in
    return np.logaddexp(combined, full_cross)


def _structured_step_backward(decoder, nxt: np.ndarray) -> np.ndarray:
    """One backward log-sum step (``nxt`` already includes emissions)."""
    hmms = decoder.hmms
    log_self, log_leave, cross = hmms.transition_blocks()
    entries, exits = hmms.entry_states(), hmms.exit_states()
    n_states = hmms.n_states
    stay = nxt + log_self
    adv = np.full(n_states, -np.inf)
    if hmms.states_per_phone > 1:
        non_exit = np.setdiff1d(np.arange(n_states), exits)
        adv[non_exit] = nxt[non_exit + 1] + log_leave
    # From exit of phone p into entries of all phones q.
    cross_scores = cross + nxt[entries][None, :]  # (P, P)
    m = cross_scores.max(axis=1)
    with np.errstate(over="ignore", divide="ignore"):
        cross_out = m + np.log(
            np.exp(cross_scores - np.where(np.isfinite(m), m, 0.0)[:, None]).sum(
                axis=1
            )
        )
    combined = np.logaddexp(stay, adv)
    full_cross = np.full(n_states, -np.inf)
    full_cross[exits] = cross_out
    return np.logaddexp(combined, full_cross)


def _forward_backward(decoder, log_likelihood: np.ndarray) -> np.ndarray:
    t_total, n_states = log_likelihood.shape
    scaled = log_likelihood
    dt = log_likelihood.dtype
    alpha = np.empty((t_total, n_states), dtype=dt)
    alpha[0] = decoder.hmms.initial_log_probs().astype(dt) + scaled[0]
    for t in range(1, t_total):
        alpha[t] = _structured_step_forward(decoder, alpha[t - 1]) + scaled[t]
    beta = np.empty((t_total, n_states), dtype=dt)
    beta[-1] = 0.0
    for t in range(t_total - 2, -1, -1):
        beta[t] = _structured_step_backward(decoder, beta[t + 1] + scaled[t + 1])
    log_gamma = alpha + beta
    log_gamma -= log_gamma.max(axis=1, keepdims=True)
    gamma = np.exp(log_gamma)
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma


def decode(decoder, frames: np.ndarray) -> Sausage:
    """Decode feature frames into a posterior sausage, one utterance."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    loglik = decoder._scaled_loglik(frames)
    path, crossed = viterbi(decoder, loglik)
    if path.size == 0:
        return Sausage([], decoder.phone_set)
    posteriors = state_posteriors(decoder, loglik)
    # Fold composite-state posteriors to phone posteriors.
    s = decoder.hmms.states_per_phone
    phone_post = posteriors.reshape(
        posteriors.shape[0], decoder.hmms.n_phones, s
    ).sum(axis=2)
    phone_path = path // s
    slots = decoder._segment_slots(phone_path, crossed, phone_post)
    return Sausage(slots, decoder.phone_set)


# ----------------------------------------------------------------------
# confusion-channel recognizer
# ----------------------------------------------------------------------
def confusion_decode_reference(
    recognizer, utterance, rng: np.random.Generator | int | None = None
) -> Sausage:
    """The original per-slot decode loop (bitwise oracle for tests)."""
    rng = ensure_rng(
        rng if rng is not None else child_rng(0, f"decode/{utterance.utt_id}")
    )
    m = recognizer.model
    err = recognizer._session_error(utterance)
    phones = utterance.phones
    n_local = len(recognizer.phone_set)
    del_rate = min(0.9, m.deletion_rate * (1.0 + 2.0 * err))
    ins_rate = min(0.9, m.insertion_rate * (1.0 + 2.0 * err))
    keep = rng.random(phones.size) >= del_rate
    kept = phones[keep]
    slots_universal: list[int | None] = []
    for p in kept:
        slots_universal.append(int(p))
        if rng.random() < ins_rate:
            slots_universal.append(None)  # a spurious slot
    if not slots_universal:
        slots_universal = [int(phones[0])] if phones.size else []
    uniform = np.full(n_local, 1.0 / n_local)
    slots: list[SausageSlot] = []
    projection = recognizer.session_projection(utterance.session)
    jitter_conc = 60.0 * (1.0 - err) + 4.0
    for u in slots_universal:
        if u is None:
            base = uniform.copy()
        else:
            base = projection[u]
        probs = (1.0 - err) * base + err * uniform
        noisy = rng.gamma(np.maximum(probs * jitter_conc, 1e-3))
        total = noisy.sum()
        probs = noisy / total if total > 0 else uniform
        top = np.argsort(probs)[::-1][: m.top_k]
        top_probs = probs[top]
        top_probs /= top_probs.sum()
        order = np.argsort(top)
        slots.append(SausageSlot(top[order].astype(np.int64), top_probs[order]))
    return Sausage(slots, recognizer.phone_set)


def confusion_decode_batch_reference(
    recognizer,
    utterances: list,
    rngs: list[np.random.Generator] | None = None,
) -> list[Sausage]:
    """``decode_batch`` as a loop over :func:`confusion_decode_reference`."""
    if rngs is None:
        rngs = [child_rng(0, f"decode/{u.utt_id}") for u in utterances]
    if len(rngs) != len(utterances):
        raise ValueError("rngs must match utterances in length")
    return [
        confusion_decode_reference(recognizer, u, r)
        for u, r in zip(utterances, rngs)
    ]

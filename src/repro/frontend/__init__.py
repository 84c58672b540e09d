"""Phone recognizer substrate: acoustic models, decoding, lattices."""

from repro.frontend.confusion import ConfusionChannelRecognizer, ConfusionModel
from repro.frontend.decoder import (
    DecoderConfig,
    ViterbiDecoder,
    estimate_phone_bigram,
)
from repro.frontend.lattice import Lattice, Sausage, SausageSlot, pinch_lattice
from repro.frontend.recognizer import (
    AcousticPhoneRecognizer,
    PhoneRecognizer,
    decode_utterances,
)
from repro.frontend.registry import PAPER_FRONTENDS, FrontendSpec, build_frontends

__all__ = [
    "ConfusionChannelRecognizer",
    "ConfusionModel",
    "DecoderConfig",
    "ViterbiDecoder",
    "estimate_phone_bigram",
    "Lattice",
    "Sausage",
    "SausageSlot",
    "pinch_lattice",
    "AcousticPhoneRecognizer",
    "PhoneRecognizer",
    "decode_utterances",
    "PAPER_FRONTENDS",
    "FrontendSpec",
    "build_frontends",
]

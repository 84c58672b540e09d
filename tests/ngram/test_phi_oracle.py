"""The vectorized φ chain against its reference loops, bitwise.

Hypothesis sausages go through both the production path and the
oracles of :mod:`tests.ngram.phi_oracle`; every comparison is on raw
bytes, because the campaign tables are contractually bitwise in float64.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.phoneset import PhoneSet
from repro.frontend.lattice import Sausage, SausageSlot
from repro.ngram.counts import expected_count_arrays
from repro.ngram.supervector import SupervectorExtractor, TFLLRScaler
from tests.ngram.phi_oracle import (
    expected_counts_sausage_reference,
    extract_reference,
    tfllr_fit_reference,
    tfllr_transform_reference,
)

N_PHONES = 6
PS = PhoneSet("t6", tuple("abcdef"))


@st.composite
def sausages(draw, max_slots: int = 8):
    n_slots = draw(st.integers(0, max_slots))
    slots = []
    for _ in range(n_slots):
        phones = sorted(
            draw(
                st.lists(
                    st.integers(0, N_PHONES - 1),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
        )
        raw = np.array(
            [draw(st.floats(1e-3, 1.0, allow_nan=False)) for _ in phones]
        )
        slots.append(SausageSlot(np.array(phones), raw / raw.sum()))
    return Sausage(slots, PS)


def _assert_same_vector(got, want):
    assert got.dim == want.dim
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


class TestExpectedCountArrays:
    @given(sausages(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_window_loop_bitwise(self, sausage, order):
        codes, sums = expected_count_arrays(sausage, order)
        reference = expected_counts_sausage_reference(sausage, order)
        assert codes.tolist() == sorted(reference)
        want = np.array([reference[c] for c in sorted(reference)], np.float64)
        assert sums.tobytes() == want.tobytes()


class TestSupervectorExtract:
    @given(sausages(), st.sampled_from([(1,), (1, 2), (1, 2, 3), (2, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_extraction_bitwise(self, sausage, orders):
        extractor = SupervectorExtractor(N_PHONES, orders)
        _assert_same_vector(
            extractor.extract(sausage), extract_reference(extractor, sausage)
        )


class TestTFLLRScaler:
    @given(
        st.lists(sausages(), min_size=1, max_size=6),
        st.lists(sausages(), min_size=1, max_size=4),
        st.sampled_from([1e-5, 1e-2, 0.2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fit_and_transform_match_dense_scaling_bitwise(
        self, train_sausages, test_sausages, min_prob
    ):
        extractor = SupervectorExtractor(N_PHONES, (1, 2))
        train = extractor.extract_matrix(train_sausages)
        test = extractor.extract_matrix(test_sausages)
        fast = TFLLRScaler(min_prob).fit(train)
        dense = tfllr_fit_reference(TFLLRScaler(min_prob), train)
        assert fast.scale_.tobytes() == dense.scale_.tobytes()
        for x in (train, test):
            got = fast.transform(x)
            want = tfllr_transform_reference(dense, x)
            assert got.indptr.tobytes() == want.indptr.tobytes()
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.values.tobytes() == want.values.tobytes()

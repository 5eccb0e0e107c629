"""DITTO* — supervised entity matcher over serialized tuple pairs.

Ditto fine-tunes a pre-trained language model on serialized entity pairs
(``[COL] a [VAL] x ...``) as a binary classification task.  The offline
stand-in keeps the protocol — serialized inputs, binary match/non-match
training on 60% of the annotated pairs, scoring of every candidate pair at
test time — with a logistic scorer over pair features.  To mimic Ditto's
sequence-level view (and its reported weakness when one side has no schema),
it deliberately uses only sequence-level features and no attribute
structure.  That is :class:`~repro.baselines.supervised.SupervisedPairMatcher`'s
default protocol unchanged.
"""

from __future__ import annotations

from repro.baselines.supervised import SupervisedPairMatcher


class DittoMatcher(SupervisedPairMatcher):
    """Binary match classifier over serialized pair features."""

    name = "ditto*"

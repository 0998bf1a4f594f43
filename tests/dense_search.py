"""The tests' one dense detector oracle: the distance from a received frame to
every codeword's noise-free image through the sample-level channel."""

import numpy as np

from afdm_pim.channel import time_domain_operator
from afdm_pim.detection import codeword_time_signals


def dense_metrics(r, ch, cfg, alphabet):
    """|r - image_c|^2 for every codeword c, in payload order.

    The image of a codeword is its frame through `add_cpp` and
    `apply_channel_batch` under the realization ch, prefix dropped: the frame
    times `time_domain_operator`, the channel's response to the N prefixed
    unit frames.
    """
    images = codeword_time_signals(cfg, alphabet) @ time_domain_operator(ch, cfg).T
    return np.sum(np.abs(r[None, :] - images) ** 2, axis=1)

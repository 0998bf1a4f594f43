"""The tests' one dense detector oracle: the distance from a received frame to
every codeword's noise-free image through the sample-level channel."""

import numpy as np

from afdm_pim.channel import apply_channel_batch
from afdm_pim.detection import codeword_time_signals
from afdm_pim.transceiver import add_cpp


def dense_metrics(r, ch, cfg, alphabet):
    """|r - image_c|^2 for every codeword c, in payload order.

    The image of a codeword is its frame through `add_cpp` and
    `apply_channel_batch` under the realization ch, prefix dropped. That channel
    is linear, so the images are the frames times its response to the N
    prefixed unit frames.
    """
    n = cfg.n_subcarriers
    paths = (np.broadcast_to(v, (n, len(v))) for v in (ch.gains, ch.delays, ch.dopplers))
    response = apply_channel_batch(add_cpp(np.eye(n), cfg), *paths, cfg)[:, cfg.cpp_length :]
    images = codeword_time_signals(cfg, alphabet) @ response
    return np.sum(np.abs(r[None, :] - images) ** 2, axis=1)

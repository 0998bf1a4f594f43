"""AFDM with pre-chirp index modulation: waveform, channel, detection, analysis."""

from .analysis import diversity_order, spectral_efficiency
from .channel import (
    ChannelRealization,
    apply_channel_time,
    sample_channel,
)
from .config import RandomSource, SystemConfig
from .detection import MLDetector
from .mapping import (
    PreChirpAlphabet,
    bits_to_frame,
    enumerate_codewords,
    frame_bit_count,
    index_bits_to_group_pattern,
)
from .simulate import (
    TABLE_ALPHABETS,
    Scenario,
    make_preset,
    run_ber_sweep,
    theory_points,
)
from .transceiver import add_cpp, build_daft, modulate, remove_cpp

__version__ = "0.1.0"

"""The paper's video datasets, interruption models and arrival processes."""

from .arrivals import PoissonProcess
from .catalog import (
    MBPS,
    NETFLIX_LADDER_BPS,
    Catalog,
    ResolutionTier,
    generate_netflix_catalog,
    generate_youtube_catalog,
    sample_netflix_duration,
    sample_youtube_duration,
)
from .datasets import (
    DATASET_NAMES,
    FULL_SIZES,
    make_dataset,
    make_netmob,
    make_netpc,
    make_youflash,
    make_youhd,
    make_youhtml,
    make_youmob,
)
from .interrupts import (
    INTEREST,
    QUALITY,
    EmpiricalInterruptionModel,
    FixedBetaModel,
    Interruption,
    InterruptionModel,
    NoInterruption,
)
from .video import Variant, Video

__all__ = [
    "Video",
    "Variant",
    "Catalog",
    "ResolutionTier",
    "MBPS",
    "NETFLIX_LADDER_BPS",
    "generate_youtube_catalog",
    "generate_netflix_catalog",
    "sample_youtube_duration",
    "sample_netflix_duration",
    "DATASET_NAMES",
    "FULL_SIZES",
    "make_dataset",
    "make_youflash",
    "make_youhd",
    "make_youhtml",
    "make_youmob",
    "make_netpc",
    "make_netmob",
    "Interruption",
    "InterruptionModel",
    "NoInterruption",
    "FixedBetaModel",
    "EmpiricalInterruptionModel",
    "INTEREST",
    "QUALITY",
    "PoissonProcess",
]

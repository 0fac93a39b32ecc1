"""Dataset and result persistence (stored, uncompressed .npz archives)."""

from repro.io.storage import (
    ResultArchive,
    load_dataset,
    load_result,
    save_dataset,
    save_result,
)

__all__ = [
    "save_dataset",
    "load_dataset",
    "save_result",
    "load_result",
    "ResultArchive",
]

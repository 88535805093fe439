"""Storage subsystem: the VOCALExplore stores and their durability layer.

Public entry points:

* :class:`StorageManager` — facade bundling the four concrete stores.
* :class:`VideoStore`, :class:`LabelStore` — append-only record lists of
  videos and labels; :class:`FeatureStore` — columnar feature vectors;
  :class:`ModelRegistry` — versioned trained models.
* :class:`~repro.storage.durability.CheckpointManager` and friends — the one
  persistence path: a write-ahead journal of store writes plus atomic
  generation snapshots, with crash recovery.
"""

from .durability import CheckpointManager, replay_records
from .feature_store import FeatureStore
from .label_store import LabelStore
from .model_registry import ModelRegistry
from .storage_manager import StorageManager
from .video_store import VideoStore

__all__ = [
    "VideoStore",
    "LabelStore",
    "FeatureStore",
    "ModelRegistry",
    "StorageManager",
    "CheckpointManager",
    "replay_records",
]

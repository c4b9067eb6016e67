"""Question answering and temporal localization over caption tracks.

Long egocentric videos are represented by timestamped caption tracks. The
pipeline compacts a track (digest), asks a language model structured
questions about it (reasoner), ensembles repeated answers by verbalized
confidence (ensemble), refines coarse localization windows (refine), and
scores everything (metrics). Backends for the model and the text embedder
are pluggable, with deterministic replay and mock implementations for
offline runs.
"""

__version__ = "0.1.0"

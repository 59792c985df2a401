"""Geometry of the segment set: midpoints and balanced spatial cells.

:func:`repro.shard.spatial.segment_midpoints` gives road-graph node
coordinates (the serving index's nearest-segment lookup builds on
them), and :func:`repro.shard.spatial.spatial_shards` cuts a point set
into balanced, axis-aligned cells — a cheap valid labelling for serving
benches and tests that need a partition without running the pipeline.
"""

from repro.shard.spatial import segment_midpoints, spatial_shards

__all__ = ["segment_midpoints", "spatial_shards"]

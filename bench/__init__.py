"""The repository benchmark: four workloads, end-to-end metrics with
regression bounds, and outside-in per-layer spans.  See ``README.md``
here and ``BENCHMARK.json`` at the repository root."""

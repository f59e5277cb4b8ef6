"""End-to-end benchmark of the rating service (see README.md).

``python -m benchmarks.e2e`` runs every workload and prints every
end-to-end metric with its unit and sample count; ``run.py`` runs one
workload and prints one JSON result line.
"""

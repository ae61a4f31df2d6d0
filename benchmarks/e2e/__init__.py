"""End-to-end benchmark of the served AQP system (see README.md).

``BENCHMARK.json`` at the repository root names the command, the
workloads and the metrics; this package is everything that command runs.
Nothing here is imported by ``repro`` and nothing in ``repro`` knows the
benchmark exists: layers are measured from outside.
"""

"""The repository benchmark: end-to-end workloads with a traced per-layer run.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics
and ``perfbench/spec.json`` records how each workload is built.
"""

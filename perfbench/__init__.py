"""Repository benchmark: host speed and simulated serving latency.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``METRICS.md`` lists every metric.
"""

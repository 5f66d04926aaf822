"""The repository benchmark: host wall-clock serving on closed-loop workloads.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
:mod:`perfbench.run`.
"""

"""Layered benchmark of the failure-analysis toolkit (see README.md).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints
its metrics as the last line of standard output.
"""

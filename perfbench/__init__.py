"""Repository benchmark: host speed and modeled A100 results of the four
systems (NoCC, STM, Lock, Eirene) on four workloads, plus a traced run that
splits host time by layer.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout. Tests:
``python3 -m pytest perfbench/tests``.

Two kinds of number are reported and never combined: ``host_*`` metrics are
seconds on the machine running the simulator, ``modeled_*`` metrics are
simulated A100 seconds from the library's cost model.
"""

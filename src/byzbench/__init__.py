"""byzbench: deterministic federated-learning simulation with robust aggregation.

The package simulates synchronous federated SGD under Byzantine attacks and
provides a family of robust aggregation rules plus a segmented similarity
filter that screens client updates before averaging.

Import each name from its module: the specs from `byzbench.specs`, which
loads no numpy, the engine from `byzbench.flsim`, `aggregators`, `filtering`
and the rest. Importing the package itself loads nothing else.
"""

__version__ = "0.1.0"

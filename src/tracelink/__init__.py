"""tracelink: temporal link prediction on microservice call traces.

The pipeline ingests caller/callee events, slices them into fixed time
windows, trains a two-layer graph attention network with degree-weighted
negative sampling, and scores which services will talk to each other in
future windows.
"""

__version__ = "0.1.0"

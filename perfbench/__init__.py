"""The spectrumlab benchmark: seeded workloads, output checks and a tracer
that times calls into each module from outside.  Entry point: ``run.py``."""

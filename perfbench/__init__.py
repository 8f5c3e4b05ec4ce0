"""Serving benchmark for the King-Saia peer sampler (see README.md)."""

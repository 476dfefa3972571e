"""Experiment harness: configuration, data, orchestration, and reports."""
